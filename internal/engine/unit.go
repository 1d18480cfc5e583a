package engine

import (
	"fmt"
	"strconv"
)

// ---- work unit codec ----
//
// A work unit is the fleet's wire form of one verification: the
// scenario's position in the coordinator's dispatch sequence plus the
// canonical engine-spec and scenario documents of this package, so a
// unit is exactly as addressable on the worker as it was on the
// coordinator.
//
// There is one encoder, AssembleWorkUnit: it writes the unit around the
// scenario's unnamed canonical encoding. EncodeWorkUnit computes that
// encoding; the fleet's coordinator hands over the one it already holds.
//
// Decoding is one pass of the wire reader (wire.go) into unitJSON, whose
// engine and scenario members are the spec and scenario wire structs
// themselves; every rule of the standalone decoders holds: unknown
// members at any depth and trailing data are errors, the unit, spec and
// scenario versions must be SchemaVersion, the index must not be
// negative, the spec must pass EngineSpec.Engine's kind and field rules,
// and the scenario Scenario.Validate.
//
// Repeated members are read by the reader's rules, at every depth alike.
// A repeated number or string keeps its last value. A repeated object —
// "engine" or "scenario" — is decoded into the one value it names, so a
// later copy overwrites the members it states and leaves the rest:
// `"scenario":{…agents…},"scenario":{"version":1}` is the scenario with
// those agents, the way DecodeScenario merges a repeated section. Member
// names match case-insensitively, so "Scenario" is the scenario member.

type unitJSON struct {
	Version  int          `json:"version"`
	Index    int          `json:"index"`
	Engine   EngineSpec   `json:"engine"`
	Scenario scenarioJSON `json:"scenario"`
}

// EncodeWorkUnit renders one dispatchable unit. A custom engine
// implementation has no spec, and a scenario the codec cannot encode no
// document; both are errors.
func EncodeWorkUnit(index int, eng Engine, s *Scenario) ([]byte, error) {
	spec, err := EncodeEngineSpec(eng)
	if err != nil {
		return nil, err
	}
	canonical, err := encodeUnnamed(s)
	if err != nil {
		return nil, err
	}
	return AssembleWorkUnit(index, string(spec), s.Name, canonical), nil
}

// unitHead opens every work unit; the index follows it.
var unitHead = fmt.Sprintf(`{"version":%d,"index":`, SchemaVersion)

// AssembleWorkUnit writes the work unit for scenario index from
// encodings the caller holds: spec is EncodeEngineSpec of the engine,
// name the scenario's name, and canonical the scenario's canonical
// encoding with its name blanked — the bytes its content address hashes,
// which a decoded sweep carries for every cell. Only the index and the
// name are encoded here; the name goes in after the scenario's version,
// where EncodeScenario writes it.
func AssembleWorkUnit(index int, spec, name string, canonical []byte) []byte {
	// Room for the members around the two documents, any index, and a
	// name that needs no escaping: one allocation for a typical unit.
	unit := make([]byte, 0, len(unitHead)+len(spec)+len(name)+len(canonical)+64)
	unit = append(unit, unitHead...)
	unit = strconv.AppendInt(unit, int64(index), 10)
	unit = append(unit, `,"engine":`...)
	unit = append(unit, spec...)
	unit = append(unit, `,"scenario":`...)
	unit = append(unit, canonicalHead...)
	if name != "" {
		unit = append(unit, `,"name":`...)
		unit = appendString(unit, name, true)
	}
	unit = append(unit, canonical[len(canonicalHead):]...)
	return append(unit, '}')
}

// DecodeWorkUnit parses a work unit back into its parts in one strict
// pass; see the codec rules above.
func DecodeWorkUnit(data []byte) (index int, eng Engine, s Scenario, err error) {
	var w unitJSON
	r := newReader(data)
	r.unit(&w)
	if err = r.end(); err != nil {
		return 0, nil, Scenario{}, fmt.Errorf("engine: unit: %w", err)
	}
	return w.parts()
}

// parts checks a decoded unit's versions and index, and builds its
// engine and scenario.
func (w *unitJSON) parts() (index int, eng Engine, s Scenario, err error) {
	switch {
	case w.Version != SchemaVersion:
		err = fmt.Errorf("engine: unit: unsupported schema version %d (want %d)", w.Version, SchemaVersion)
	case w.Index < 0:
		err = fmt.Errorf("engine: unit: negative index %d", w.Index)
	case w.Engine.Version != SchemaVersion:
		err = fmt.Errorf("engine: spec: unsupported schema version %d (want %d)", w.Engine.Version, SchemaVersion)
	case w.Scenario.Version != SchemaVersion:
		err = fmt.Errorf("engine: scenario: unsupported schema version %d (want %d)", w.Scenario.Version, SchemaVersion)
	}
	if err != nil {
		return 0, nil, Scenario{}, err
	}
	if eng, err = w.Engine.Engine(); err != nil {
		return 0, nil, Scenario{}, err
	}
	if s, err = scenarioFromWire(&w.Scenario); err != nil {
		return 0, nil, Scenario{}, err
	}
	return w.Index, eng, s, nil
}

// WorkUnit is one decoded unit of a sequence.
type WorkUnit struct {
	Index    int
	Engine   Engine
	Scenario Scenario
}

// DecodeWorkUnits reads a sequence of work units, as a fleet worker's
// request body holds them: one or more unit documents with white space
// between them (a coordinator writes one per line), each read as
// DecodeWorkUnit reads one, at most max of them. A unit that does not
// decode, or more than max units, refuse the whole sequence, and so
// does anything after a unit that does not open another: trailing data,
// at its byte offset. An error past the first unit names its position.
func DecodeWorkUnits(data []byte, max int) ([]WorkUnit, error) {
	r := newReader(data)
	var wire []unitJSON
	for {
		if c := r.peek(); len(wire) > 0 && c != '{' {
			if r.i == len(data) {
				break
			}
			return nil, fmt.Errorf("engine: unit: byte %d: %w", r.i, errTrailingData)
		}
		if len(wire) == max {
			return nil, fmt.Errorf("engine: more than %d units", max)
		}
		wire = append(wire, unitJSON{})
		r.unit(&wire[len(wire)-1])
		if err := r.syn; err != nil || r.err != nil {
			if err == nil {
				err = r.err
			}
			return nil, positioned(len(wire), fmt.Errorf("engine: unit: %w", err))
		}
	}
	units := make([]WorkUnit, len(wire))
	for i := range wire {
		u := &units[i]
		var err error
		if u.Index, u.Engine, u.Scenario, err = wire[i].parts(); err != nil {
			return nil, positioned(i+1, err)
		}
	}
	return units, nil
}

// positioned names unit n (from 1) of a sequence in err, unless it is
// the first.
func positioned(n int, err error) error {
	if n > 1 {
		return fmt.Errorf("unit %d: %w", n, err)
	}
	return err
}
