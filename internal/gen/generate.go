package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/netsim"
)

// subSeed derives the independent random-stream seed for scenario index
// i — a splitmix64 finalizer over (seed, i), so neighbouring indices get
// statistically unrelated streams and scenario i is the same value no
// matter how many scenarios the call generates around it.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func randIn(rng *rand.Rand, r IntRange) int {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + rng.Intn(r.Max-r.Min+1)
}

func randFloatIn(rng *rand.Rand, r FloatRange) float64 {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + rng.Float64()*(r.Max-r.Min)
}

func choice(rng *rand.Rand, vs []string) string { return vs[rng.Intn(len(vs))] }

// Name pattern of generated scenarios: fuzz-s<seed>-<index>.

// Generate manufactures n scenarios from the profile, deterministically
// in (profile, seed): the same call always returns the same scenarios,
// byte-for-byte under the canonical codec. Unset profile fields take
// their DefaultProfile values. Every returned scenario is valid (its
// agent specs construct) and serializable, so corpora can be written to
// disk and content-addressed by the result cache.
func Generate(p Profile, seed int64, n int) ([]engine.Scenario, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: negative scenario count %d", n)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	out := make([]engine.Scenario, n)
	for i := range out {
		s, err := generateOne(p, seed, i)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// generateOne samples scenario i. The draw order below is part of the
// generator's determinism contract: changing it changes every corpus,
// so treat it like a wire format.
func generateOne(p Profile, seed int64, i int) (engine.Scenario, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, i)))
	agents := randIn(rng, p.Agents)
	items := randIn(rng, p.Items)
	g := genGraph(rng, p, agents)

	specs := make([]mca.Config, agents)
	for a := range specs {
		spec, err := genAgent(rng, p, a, items)
		if err != nil {
			return engine.Scenario{}, fmt.Errorf("gen: scenario %d: %w", i, err)
		}
		specs[a] = spec
	}

	opts := explore.Options{
		MaxStates:           randIn(rng, p.MaxStates),
		QueueDepth:          p.QueueDepths[rng.Intn(len(p.QueueDepths))],
		DuplicateDeliveries: rng.Float64() < p.DuplicateProb,
	}

	var faults netsim.Faults
	if rng.Float64() < p.FaultProb {
		faults = genFaults(rng, p, agents)
	}

	s := engine.Scenario{
		Name:       fmt.Sprintf("fuzz-s%d-%04d", seed, i),
		AgentSpecs: specs,
		Graph:      g,
		Explore:    opts,
		Faults:     faults,
	}

	if rng.Float64() < p.ModelProb {
		m, err := genModel(rng, p, agents, items)
		if err != nil {
			return engine.Scenario{}, fmt.Errorf("gen: scenario %d: %w", i, err)
		}
		s.Model = m
	}
	return s, nil
}

// The gen* helpers map profile tokens through the enums' own tables;
// Profile.Validate has already rejected tokens those tables do not hold.

func genGraph(rng *rand.Rand, p Profile, agents int) *graph.Graph {
	var t graph.Topology
	_ = t.UnmarshalText([]byte(choice(rng, p.Topologies)))
	if t == graph.TopologyRandomConnected {
		return graph.RandomConnected(agents, randFloatIn(rng, p.EdgeProb), rng.Int63())
	}
	return graph.Build(t, agents, 0)
}

func genAgent(rng *rand.Rand, p Profile, id, items int) (mca.Config, error) {
	base := make([]int64, items)
	for j := range base {
		base[j] = 1 + rng.Int63n(p.BaseMax)
	}
	target := items
	if rng.Float64() >= p.TargetFull {
		target = 1 + rng.Intn(items)
	}
	bidsPerRound := 0
	if p.BidsPerRoundMax > 0 {
		bidsPerRound = rng.Intn(p.BidsPerRoundMax + 1)
	}
	cfg := mca.Config{
		ID:    mca.AgentID(id),
		Items: items,
		Base:  base,
		Policy: mca.Policy{
			Target:        target,
			Utility:       genUtility(rng, p),
			ReleaseOutbid: rng.Float64() < p.ReleaseProb,
			Rebid:         genRebid(rng, p),
			BidsPerRound:  bidsPerRound,
		},
	}
	return cfg, cfg.Validate()
}

func genUtility(rng *rand.Rand, p Profile) mca.Utility {
	switch kind := choice(rng, p.Utilities); kind {
	case mca.KindSubmodularResidual:
		return mca.SubmodularResidual{Decay: 2 + rng.Int63n(5)}
	case mca.KindFlat:
		return mca.FlatUtility{}
	case mca.KindNonSubmodularSynergy:
		return mca.NonSubmodularSynergy{SynergyNum: 1 + rng.Int63n(2), SynergyDen: 2}
	case mca.KindEscalatingAttack:
		return mca.EscalatingUtility{Step: 1 + rng.Int63n(3), Cap: 100 + rng.Int63n(400)}
	default:
		panic("gen: no parameter draw for utility kind " + kind)
	}
}

func genRebid(rng *rand.Rand, p Profile) mca.RebidMode {
	var m mca.RebidMode
	_ = m.UnmarshalText([]byte(choice(rng, p.RebidModes)))
	return m
}

// genFaults draws a fault model. Probabilistic and timed components
// route the scenario to the Simulation engine; a permanent partition
// alone keeps it exhaustively checkable on the masked graph.
func genFaults(rng *rand.Rand, p Profile, agents int) netsim.Faults {
	var f netsim.Faults
	if p.DropMax > 0 {
		// Quantized so corpus JSON stays short and readable.
		f.Drop = float64(int(rng.Float64()*p.DropMax*100)) / 100
	}
	if p.DelayMax > 0 {
		f.Delay = rng.Intn(p.DelayMax + 1)
	}
	if rng.Float64() < p.PartitionProb && agents >= 2 {
		// A random two-block split with both sides non-empty.
		cut := 1 + rng.Intn(agents-1)
		perm := rng.Perm(agents)
		blocks := [][]int{perm[:cut], perm[cut:]}
		f.Partitions = blocks
		if p.HealAfterMax > 0 {
			f.HealAfter = rng.Intn(p.HealAfterMax + 1)
		}
	}
	// The duplication and reordering draws sit at the end of the stream
	// and are gated on their knobs, so profiles that predate them (and
	// any profile leaving them zero) consume exactly the randomness they
	// always did — pinned corpora stay byte-identical.
	if p.DupMax > 0 {
		f.Duplicate = float64(int(rng.Float64()*p.DupMax*100)) / 100
	}
	if p.ReorderMax > 0 {
		f.Reorder = rng.Intn(p.ReorderMax + 1)
	}
	return f
}

// genModel attaches a bounded relational model whose scope mirrors the
// scenario's shape, clamped small enough that the SAT backends answer
// in tens of milliseconds (the relational trace scope grows the CNF
// super-linearly).
func genModel(rng *rand.Rand, p Profile, agents, items int) (*mcamodel.Encoding, error) {
	sc := mcamodel.Scope{
		PNodes: min(agents, 3),
		VNodes: min(items, 2),
		Values: 4,
		States: randIn(rng, p.ModelStates),
		Msgs:   randIn(rng, p.ModelMsgs),
	}
	return mcamodel.Encodings[choice(rng, p.ModelEncodings)](sc)
}
