package engine

import "fmt"

// ---- engine spec codec ----
//
// An engine spec is the wire form of an Engine configuration value: the
// adapter kind plus every configuration field that can change a
// verdict. It exists so a verification request can travel between
// processes — the fleet coordinator serializes the engine a sweep asked
// for into each work unit, and workers rebuild an identical Engine
// value on the other side. CacheKey hashes these bytes, so a spec round
// trip preserves content addresses: the same (scenario, engine) pair
// computes the same cache key on every node of a fleet, and an engine
// without a spec has no address.

// EngineSpec is the wire struct. Kind selects the adapter; the
// remaining fields mirror the adapter configuration fields and are
// omitted at their zero values, so the encoding is canonical.
type EngineSpec struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// Workers: Auto/SAT portfolio members; on Explicit, only a count
	// past MaxWorkers is kept (see Explicit.Workers).
	Workers int `json:"workers,omitempty"`
	// Runs, Seed, MaxDeliveries, BudgetFactor: Simulation sampling.
	Runs          int   `json:"runs,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	MaxDeliveries int   `json:"max_deliveries,omitempty"`
	BudgetFactor  int   `json:"budget_factor,omitempty"`
}

// EncodeEngineSpec renders an Engine configuration as canonical
// versioned JSON. Only the four adapter values (Auto, Explicit,
// Simulation, SAT) are encodable; custom Engine implementations are
// rejected — they cannot be rebuilt on a remote node. A nil engine
// encodes as Auto{}.
func EncodeEngineSpec(e Engine) ([]byte, error) {
	w, err := engineSpec(e)
	if err != nil {
		return nil, err
	}
	return encodeSpec(&w), nil
}

// engineSpec is the spec EncodeEngineSpec encodes. It refuses every
// engine but the four adapters, whose values are all comparable.
func engineSpec(e Engine) (EngineSpec, error) {
	w := EngineSpec{Version: SchemaVersion}
	switch v := e.(type) {
	case nil:
		w.Kind = "auto"
	case Auto:
		w.Kind = "auto"
		w.Workers = v.Workers
	case Explicit:
		w.Kind = "explicit"
		w.Workers = v.addressed().Workers
	case Simulation:
		w.Kind = "simulation"
		w.Runs = v.Runs
		w.Seed = v.Seed
		w.MaxDeliveries = v.MaxDeliveries
		w.BudgetFactor = v.BudgetFactor
	case SAT:
		w.Kind = "sat"
		w.Workers = v.Workers
	default:
		return EngineSpec{}, fmt.Errorf("engine: spec: %T is not a serializable engine", e)
	}
	return w, nil
}

// DecodeEngineSpec parses an engine spec document back into the Engine
// value it was encoded from. Decoding is strict: unknown fields,
// unknown kinds, a missing or wrong version, and fields that do not
// belong to the kind (e.g. runs on an explicit spec) are errors.
func DecodeEngineSpec(data []byte) (Engine, error) {
	var w EngineSpec
	r := newReader(data)
	r.spec(&w)
	if err := r.end(); err != nil {
		return nil, fmt.Errorf("engine: spec: %w", err)
	}
	if w.Version != SchemaVersion {
		return nil, fmt.Errorf("engine: spec: unsupported schema version %d (want %d)", w.Version, SchemaVersion)
	}
	return w.Engine()
}

// Engine builds the adapter value the spec names, rejecting unknown
// kinds and fields that do not belong to the kind. It is the one
// kind/field check: the wire decoder and mcaserved's query parameters
// both go through it. An explicit spec's workers are dropped up to
// MaxWorkers, as in its content address (Explicit.Workers runs
// nothing). Version is the decoder's concern, not checked here.
func (w EngineSpec) Engine() (Engine, error) {
	simOnly := w.Runs != 0 || w.Seed != 0 || w.MaxDeliveries != 0 || w.BudgetFactor != 0
	switch w.Kind {
	case "auto":
		if simOnly {
			return nil, fmt.Errorf("engine: spec: auto takes only workers")
		}
		return Auto{Workers: w.Workers}, nil
	case "explicit":
		if simOnly {
			return nil, fmt.Errorf("engine: spec: explicit takes only workers")
		}
		return Explicit{Workers: w.Workers}.addressed(), nil
	case "simulation":
		if w.Workers != 0 {
			return nil, fmt.Errorf("engine: spec: simulation takes no workers")
		}
		return Simulation{Runs: w.Runs, Seed: w.Seed, MaxDeliveries: w.MaxDeliveries, BudgetFactor: w.BudgetFactor}, nil
	case "sat":
		if simOnly {
			return nil, fmt.Errorf("engine: spec: sat takes only workers")
		}
		return SAT{Workers: w.Workers}, nil
	default:
		return nil, fmt.Errorf("engine: spec: unknown kind %q (want auto|explicit|simulation|sat)", w.Kind)
	}
}
