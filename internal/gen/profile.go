package gen

import (
	"encoding"
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
)

// IntRange is an inclusive integer interval sampled uniformly.
type IntRange struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

// FloatRange is a half-open float interval [Min, Max) sampled uniformly
// (a degenerate range with Min == Max always yields Min).
type FloatRange struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Profile tunes the scenario generator: every knob is a distribution or
// a probability, and Generate samples one scenario per index from them.
// Unset structural fields — ranges, lists, BaseMax — fall back to the
// corresponding DefaultProfile value, so a partial profile stays valid.
// Probability fields are taken literally: zero means never, so
// Profile{} generates plain fault-free scenarios. Start from
// DefaultProfile for the full workload mix.
//
// List-valued fields are sampled uniformly; repeating an entry weights
// it. Probabilities are in [0, 1]. The JSON tags are the profile
// document's wire form (DecodeProfile); an unset range marshals as
// {"min":0,"max":0}, which decodes back as unset.
type Profile struct {
	// Agents is the agent-count distribution (minimum 1).
	Agents IntRange `json:"agents"`
	// Items is the per-scenario auctioned-item count distribution
	// (minimum 1; every agent sees the same item set).
	Items IntRange `json:"items"`
	// Topologies lists the candidate network shapes: "line", "ring",
	// "star", "complete", "random" (seeded Erdős–Rényi over a random
	// spanning tree, always connected).
	Topologies []string `json:"topologies,omitempty"`
	// EdgeProb is the extra-edge probability for "random" topologies.
	EdgeProb FloatRange `json:"edge_prob"`
	// Utilities lists the candidate bidding utilities by their codec
	// kind: "submodular-residual", "flat", "non-submodular-synergy",
	// "escalating-attack". The last two violate Definition 2 and breed
	// counterexamples.
	Utilities []string `json:"utilities,omitempty"`
	// ReleaseProb is the probability an agent uses the release-outbid
	// policy (p_RO).
	ReleaseProb float64 `json:"release_prob,omitempty"`
	// RebidModes lists the candidate Remark 1 rebid rules: "on-change",
	// "never", "always" ("always" is the Result 2 attack surface).
	RebidModes []string `json:"rebid_modes,omitempty"`
	// BidsPerRoundMax bounds the per-round bidding cap; each agent draws
	// from 0 (unlimited) to this value. 0 keeps every agent unlimited.
	BidsPerRoundMax int `json:"bids_per_round_max,omitempty"`
	// BaseMax bounds the per-item private valuations, drawn from
	// [1, BaseMax].
	BaseMax int64 `json:"base_max,omitempty"`
	// TargetFull is the probability an agent's bundle target p_T covers
	// every item; otherwise the target is drawn from [1, items].
	TargetFull float64 `json:"target_full,omitempty"`

	// DuplicateProb is the probability a scenario explores at-least-once
	// delivery (explore.Options.DuplicateDeliveries).
	DuplicateProb float64 `json:"duplicate_prob,omitempty"`
	// QueueDepths lists candidate per-channel queue bounds
	// (explore.Options.QueueDepth): 0 is the engine default of 2, -1
	// means unbounded channels (state-space heavy; pair with a modest
	// MaxStates). Other negatives are rejected.
	QueueDepths []int `json:"queue_depths,omitempty"`
	// MaxStates is the explicit-state exploration budget distribution.
	MaxStates IntRange `json:"max_states"`

	// FaultProb is the probability a scenario carries a network fault
	// model at all; the remaining fault fields shape it.
	FaultProb float64 `json:"fault_prob,omitempty"`
	// DropMax bounds the uniform message-drop probability.
	DropMax float64 `json:"drop_max,omitempty"`
	// DelayMax bounds the uniform delivery delay in ticks.
	DelayMax int `json:"delay_max,omitempty"`
	// PartitionProb is the probability a faulty scenario splits the
	// agents into two partition blocks.
	PartitionProb float64 `json:"partition_prob,omitempty"`
	// HealAfterMax bounds the partition heal tick; a partitioned
	// scenario draws from [0, HealAfterMax], where 0 keeps the partition
	// permanent.
	HealAfterMax int `json:"heal_after_max,omitempty"`
	// DupMax bounds the at-least-once duplication probability
	// (netsim.Faults.Duplicate). 0 disables duplication draws entirely,
	// which also keeps pre-existing (profile, seed) corpora byte-stable:
	// the generator only spends randomness on a knob when it is set.
	DupMax float64 `json:"dup_max,omitempty"`
	// ReorderMax bounds the in-channel reorder window
	// (netsim.Faults.Reorder); a faulty scenario draws from
	// [0, ReorderMax]. 0 disables reordering draws.
	ReorderMax int `json:"reorder_max,omitempty"`

	// ModelProb is the probability a scenario carries a bounded
	// relational model for the SAT backends.
	ModelProb float64 `json:"model_prob,omitempty"`
	// ModelEncodings lists the candidate encodings: "naive",
	// "optimized".
	ModelEncodings []string `json:"model_encodings,omitempty"`
	// ModelStates is the relational trace-length distribution
	// (minimum 2).
	ModelStates IntRange `json:"model_states"`
	// ModelMsgs is the relational message-atom distribution (minimum 1).
	ModelMsgs IntRange `json:"model_msgs"`
}

// DefaultProfile is the generator's built-in workload mix: small honest
// scenarios over every topology, a third of them under network faults,
// a quarter carrying a relational model. It is the profile cmd/mcafuzz
// uses when no -profile file is given.
func DefaultProfile() Profile {
	return Profile{
		Agents:          IntRange{Min: 2, Max: 4},
		Items:           IntRange{Min: 2, Max: 3},
		Topologies:      []string{"line", "ring", "star", "complete", "random"},
		EdgeProb:        FloatRange{Min: 0.3, Max: 0.7},
		Utilities:       []string{"submodular-residual", "flat"},
		ReleaseProb:     0.5,
		RebidModes:      []string{"on-change"},
		BidsPerRoundMax: 2,
		BaseMax:         30,
		TargetFull:      0.5,
		DuplicateProb:   0.15,
		QueueDepths:     []int{0},
		MaxStates:       IntRange{Min: 10000, Max: 50000},
		FaultProb:       0.3,
		DropMax:         0.3,
		DelayMax:        3,
		PartitionProb:   0.25,
		HealAfterMax:    40,
		ModelProb:       0.25,
		ModelEncodings:  []string{"naive", "optimized"},
		ModelStates:     IntRange{Min: 2, Max: 2},
		ModelMsgs:       IntRange{Min: 1, Max: 1},
	}
}

// zero reports whether r is the unset range.
func (r IntRange) zero() bool { return r.Min == 0 && r.Max == 0 }

func (r FloatRange) zero() bool { return r.Min == 0 && r.Max == 0 }

// withDefaults fills every unset field from DefaultProfile.
func (p Profile) withDefaults() Profile {
	d := DefaultProfile()
	if p.Agents.zero() {
		p.Agents = d.Agents
	}
	if p.Items.zero() {
		p.Items = d.Items
	}
	if len(p.Topologies) == 0 {
		p.Topologies = d.Topologies
	}
	if p.EdgeProb.zero() {
		p.EdgeProb = d.EdgeProb
	}
	if len(p.Utilities) == 0 {
		p.Utilities = d.Utilities
	}
	if len(p.RebidModes) == 0 {
		p.RebidModes = d.RebidModes
	}
	if p.BaseMax == 0 {
		p.BaseMax = d.BaseMax
	}
	if len(p.QueueDepths) == 0 {
		p.QueueDepths = d.QueueDepths
	}
	if p.MaxStates.zero() {
		p.MaxStates = d.MaxStates
	}
	if len(p.ModelEncodings) == 0 {
		p.ModelEncodings = d.ModelEncodings
	}
	if p.ModelStates.zero() {
		p.ModelStates = d.ModelStates
	}
	if p.ModelMsgs.zero() {
		p.ModelMsgs = d.ModelMsgs
	}
	return p
}

// Validate rejects malformed profiles: inverted or out-of-bounds
// ranges, unknown list tokens, probabilities outside [0, 1]. Unset
// fields (zero ranges, empty lists, zero BaseMax) are valid — they mean
// "use the DefaultProfile value" — so partial profiles validate as
// written. Every range also has a generous upper bound: a profile file
// (cmd/mcafuzz -profile) reaches Generate as written, and the caps are
// what keeps one document from building a multi-gigabyte graph or CNF
// before any timeout can apply.
func (p Profile) Validate() error {
	checkRange := func(name string, r IntRange, min, max int) error {
		if r.zero() {
			return nil
		}
		if r.Min > r.Max {
			return fmt.Errorf("gen: profile %s range [%d,%d] is inverted", name, r.Min, r.Max)
		}
		if r.Min < min {
			return fmt.Errorf("gen: profile %s minimum %d is below %d", name, r.Min, min)
		}
		if r.Max > max {
			return fmt.Errorf("gen: profile %s maximum %d is above %d", name, r.Max, max)
		}
		return nil
	}
	checkProb := func(name string, v float64) error {
		if !engine.IsProbability(v) {
			return fmt.Errorf("gen: profile %s %v outside [0,1]", name, v)
		}
		return nil
	}
	// Tokens are whatever the enum's own table parses: mca's rebid modes
	// and utility kinds, graph's topologies, mcamodel's encodings.
	checkList := func(name string, vs []string, known func(tok string) bool) error {
		for _, v := range vs {
			if !known(v) {
				return fmt.Errorf("gen: profile %s token %q unknown", name, v)
			}
		}
		return nil
	}
	parses := func(into encoding.TextUnmarshaler) func(string) bool {
		return func(tok string) bool { return into.UnmarshalText([]byte(tok)) == nil }
	}
	for _, err := range []error{
		checkRange("agents", p.Agents, 1, 64),
		checkRange("items", p.Items, 1, 16),
		checkRange("max_states", p.MaxStates, 1, 10_000_000),
		checkRange("model_states", p.ModelStates, 2, 5),
		checkRange("model_msgs", p.ModelMsgs, 1, 5),
		checkProb("release_prob", p.ReleaseProb),
		checkProb("target_full", p.TargetFull),
		checkProb("duplicate_prob", p.DuplicateProb),
		checkProb("fault_prob", p.FaultProb),
		checkProb("drop_max", p.DropMax),
		checkProb("dup_max", p.DupMax),
		checkProb("partition_prob", p.PartitionProb),
		checkProb("model_prob", p.ModelProb),
		checkList("topologies", p.Topologies, parses(new(graph.Topology))),
		checkList("utilities", p.Utilities, func(tok string) bool { return slices.Contains(mca.UtilityKinds, tok) }),
		checkList("rebid_modes", p.RebidModes, parses(new(mca.RebidMode))),
		checkList("model_encodings", p.ModelEncodings, func(tok string) bool { return mcamodel.Encodings[tok] != nil }),
	} {
		if err != nil {
			return err
		}
	}
	if r := p.EdgeProb; !r.zero() && (!engine.IsProbability(r.Min) || !engine.IsProbability(r.Max) || r.Min > r.Max) {
		return fmt.Errorf("gen: profile edge_prob range [%v,%v] outside [0,1] or inverted", r.Min, r.Max)
	}
	if p.BidsPerRoundMax < 0 || p.BidsPerRoundMax > 100 {
		return fmt.Errorf("gen: profile bids_per_round_max %d outside 0..100", p.BidsPerRoundMax)
	}
	if p.BaseMax < 0 || p.BaseMax > 1<<30 {
		return fmt.Errorf("gen: profile base_max %d outside 0..2^30", p.BaseMax)
	}
	if p.DelayMax < 0 || p.DelayMax > 10_000 {
		return fmt.Errorf("gen: profile delay_max %d outside 0..10000", p.DelayMax)
	}
	if p.HealAfterMax < 0 || p.HealAfterMax > 1_000_000 {
		return fmt.Errorf("gen: profile heal_after_max %d outside 0..1000000", p.HealAfterMax)
	}
	if p.ReorderMax < 0 || p.ReorderMax > 1000 {
		return fmt.Errorf("gen: profile reorder_max %d outside 0..1000", p.ReorderMax)
	}
	for _, d := range p.QueueDepths {
		if d < -1 {
			return fmt.Errorf("gen: profile queue_depths entry %d (want -1 unbounded, 0 default, or a positive bound)", d)
		}
	}
	return nil
}

// DecodeProfile strictly parses a profile document, the Profile fields
// under their JSON names: unknown fields and trailing data are errors,
// and the decoded profile is validated. Absent fields decode as unset,
// with Profile's semantics: structural fields then default,
// probabilities stay zero. A partial document therefore behaves exactly
// like the same partial literal in Go.
func DecodeProfile(data []byte) (Profile, error) {
	var p Profile
	if err := engine.StrictUnmarshal(data, &p); err != nil {
		return Profile{}, fmt.Errorf("gen: profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}
