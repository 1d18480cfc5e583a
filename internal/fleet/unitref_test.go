package fleet_test

import (
	"encoding/json"
	"fmt"

	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/mca"
)

// decodeWorkUnitReference is the reflective strict decode that
// engine's wire reader replaced, kept as FuzzDecodeWorkUnit's oracle:
// encoding/json (engine.StrictUnmarshal) reads the unit into mirrors of
// the engine's wire structs — the same members, tags and Go types — and
// the unit is then checked as DecodeWorkUnit checks it. The scenario
// goes on to DecodeScenario as json.Marshal writes the value read, so
// that what the reader reads is held to what encoding/json reads.
func decodeWorkUnitReference(data []byte) (index int, eng engine.Engine, s engine.Scenario, err error) {
	var w unitRef
	if err = engine.StrictUnmarshal(data, &w); err != nil {
		return 0, nil, engine.Scenario{}, fmt.Errorf("unit: %w", err)
	}
	switch {
	case w.Version != engine.SchemaVersion:
		err = fmt.Errorf("unit: unsupported schema version %d", w.Version)
	case w.Index < 0:
		err = fmt.Errorf("unit: negative index %d", w.Index)
	case w.Engine.Version != engine.SchemaVersion:
		err = fmt.Errorf("spec: unsupported schema version %d", w.Engine.Version)
	}
	if err != nil {
		return 0, nil, engine.Scenario{}, err
	}
	if eng, err = w.Engine.Engine(); err != nil {
		return 0, nil, engine.Scenario{}, err
	}
	doc, err := json.Marshal(&w.Scenario)
	if err != nil {
		return 0, nil, engine.Scenario{}, err
	}
	if s, err = engine.DecodeScenario(doc); err != nil {
		return 0, nil, engine.Scenario{}, err
	}
	return w.Index, eng, s, nil
}

type unitRef struct {
	Version  int               `json:"version"`
	Index    int               `json:"index"`
	Engine   engine.EngineSpec `json:"engine"`
	Scenario scenarioRef       `json:"scenario"`
}

type scenarioRef struct {
	Version int         `json:"version"`
	Name    string      `json:"name,omitempty"`
	Agents  []agentRef  `json:"agents,omitempty"`
	Graph   *graphRef   `json:"graph,omitempty"`
	Explore *exploreRef `json:"explore,omitempty"`
	Faults  *faultsRef  `json:"faults,omitempty"`
	Model   *modelRef   `json:"model,omitempty"`
	Solver  *solverRef  `json:"solver,omitempty"`
}

type agentRef struct {
	ID       int     `json:"id"`
	Items    int     `json:"items"`
	Base     []int64 `json:"base,omitempty"`
	Demands  []int64 `json:"demands,omitempty"`
	Capacity int64   `json:"capacity,omitempty"`
	Policy   struct {
		Target  int `json:"target"`
		Utility *struct {
			Kind       string `json:"kind"`
			Decay      int64  `json:"decay,omitempty"`
			SynergyNum int64  `json:"synergy_num,omitempty"`
			SynergyDen int64  `json:"synergy_den,omitempty"`
			Step       int64  `json:"step,omitempty"`
			Cap        int64  `json:"cap,omitempty"`
		} `json:"utility,omitempty"`
		ReleaseOutbid bool          `json:"release_outbid,omitempty"`
		Rebid         mca.RebidMode `json:"rebid,omitempty"`
		BidsPerRound  int           `json:"bids_per_round,omitempty"`
	} `json:"policy"`
}

type graphRef struct {
	Nodes int `json:"nodes"`
	Edges []struct {
		U int      `json:"u"`
		V int      `json:"v"`
		W *float64 `json:"w,omitempty"`
	} `json:"edges,omitempty"`
}

type exploreRef struct {
	Bound               int               `json:"bound,omitempty"`
	BoundSlack          int               `json:"bound_slack,omitempty"`
	HardLimitFactor     int               `json:"hard_limit_factor,omitempty"`
	MaxStates           int               `json:"max_states,omitempty"`
	QueueDepth          int               `json:"queue_depth,omitempty"`
	DisableVisitedSet   bool              `json:"disable_visited_set,omitempty"`
	DuplicateDeliveries bool              `json:"duplicate_deliveries,omitempty"`
	Store               explore.StoreKind `json:"store,omitempty"`
	StoreBits           int               `json:"store_bits,omitempty"`
}

type faultsRef struct {
	Drop       float64        `json:"drop,omitempty"`
	DropEdge   []edgeFaultRef `json:"drop_edge,omitempty"`
	Delay      int            `json:"delay,omitempty"`
	DelayEdge  []edgeFaultRef `json:"delay_edge,omitempty"`
	Duplicate  float64        `json:"duplicate,omitempty"`
	Reorder    int            `json:"reorder,omitempty"`
	Partitions [][]int        `json:"partitions,omitempty"`
	HealAfter  int            `json:"heal_after,omitempty"`
}

type edgeFaultRef struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Drop  float64 `json:"drop,omitempty"`
	Delay int     `json:"delay,omitempty"`
}

type modelRef struct {
	Kind string `json:"kind"`
	Spec struct {
		Encoding string `json:"encoding"`
		Scope    struct {
			PNodes      int `json:"pnodes"`
			VNodes      int `json:"vnodes"`
			Values      int `json:"values"`
			States      int `json:"states"`
			Msgs        int `json:"msgs"`
			IntBitwidth int `json:"int_bitwidth,omitempty"`
			Triples     int `json:"triples,omitempty"`
			BidVectors  int `json:"bid_vectors,omitempty"`
		} `json:"scope"`
		AssertState int `json:"assert_state,omitempty"`
	} `json:"spec"`
}

type solverRef struct {
	DisableVSIDS       bool    `json:"disable_vsids,omitempty"`
	DisableRestarts    bool    `json:"disable_restarts,omitempty"`
	DisablePhaseSaving bool    `json:"disable_phase_saving,omitempty"`
	MaxConflicts       int64   `json:"max_conflicts,omitempty"`
	InvertPhase        bool    `json:"invert_phase,omitempty"`
	RestartBase        int64   `json:"restart_base,omitempty"`
	RandSeed           uint64  `json:"rand_seed,omitempty"`
	RandomPolarityFreq float64 `json:"random_polarity_freq,omitempty"`
}
