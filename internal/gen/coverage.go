package gen

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mca"
)

// The coverage feedback loop closes the fuzzer AFL-style: instead of
// drawing every scenario blind from the profile, FuzzCoverage keeps a
// corpus of scenarios that discovered new store-signature buckets and
// mutates them along the sweep's merge-patch axes (agent count,
// topology edges, fault intensities, exploration bounds), spending its
// budget near the scenarios that already reached unusual regions of the
// state space.
//
// The feedback signal is each leg's Signature: the quantized shape of
// its exploration or sampled executions, derived from result counters
// that are deterministic at any worker count. Everything else in
// the loop is seeded — the mutation schedule, the parent picks, the
// generated corpora — so the same (profile, seed, rounds, per-round)
// call reproduces the same corpus byte-for-byte under the canonical
// codec, at any DiffOptions.Workers setting.

// Signature is the shape of one leg's work in log2 (bits.Len) buckets,
// stable across noise-scale changes: a new signature means the scenario
// reached a qualitatively new region of the search space.
type Signature struct {
	// Occupancy buckets the states explored, or the messages delivered.
	Occupancy int
	// Depth buckets the deepest path, or the executions that converged.
	Depth int
	// Shape buckets states per level (States/MaxDepth), or drops plus
	// duplicates: it separates broad shallow explorations from narrow
	// deep ones of the same Occupancy.
	Shape int
}

// signatureOf derives a leg's signature from its stats: the explored
// state space if there is one, else the sampled executions' message
// effort, else zero (SAT). Only counters in the determinism contract
// take part, so the signature is as replayable as the verdict.
func signatureOf(st *engine.Stats) Signature {
	switch {
	case st.States > 0:
		sig := Signature{Occupancy: bits.Len(uint(st.States)), Depth: bits.Len(uint(st.MaxDepth))}
		if st.MaxDepth > 0 {
			sig.Shape = bits.Len(uint(st.States / st.MaxDepth))
		}
		return sig
	case st.Runs > 0:
		return Signature{bits.Len(uint(st.Deliveries)), bits.Len(uint(st.Converged)), bits.Len(uint(st.Dropped + st.Duplicated))}
	}
	return Signature{}
}

// Coverage is one coverage bucket: the comparability class of the
// oracle leg that reported it, the quantized signature, and the
// verdict it reached. Two scenarios cover the same bucket when an
// engine of the same class explored a state space of the same shape and
// concluded the same thing about it.
type Coverage struct {
	// Class is the reporting leg's comparability class.
	Class LegClass
	// Sig is the quantized shape of the leg's work.
	Sig Signature
	// Violated records whether the leg found a counterexample — a
	// violating scenario and a convergent one of the same shape are
	// different discoveries.
	Violated bool
}

// CoverageSet is the set of buckets a corpus has reached.
type CoverageSet map[Coverage]struct{}

// AddResult folds every conclusive leg of a differential result into
// the set and reports how many buckets were new. Inconclusive and error
// legs carry no verdict and no stable signature (a cancelled run's
// counters depend on when it was cancelled), so they never mint a
// bucket; neither does a zero signature (a SAT leg's).
func (cs CoverageSet) AddResult(r *DiffResult) int {
	discovered := 0
	for _, l := range r.Legs {
		if l.Result.Status != engine.StatusHolds && l.Result.Status != engine.StatusViolated {
			continue
		}
		sig := signatureOf(&l.Result.Stats)
		if sig == (Signature{}) {
			continue
		}
		k := Coverage{Class: l.Class, Sig: sig, Violated: l.Result.Status == engine.StatusViolated}
		if _, seen := cs[k]; !seen {
			cs[k] = struct{}{}
			discovered++
		}
	}
	return discovered
}

// CoverageOptions configures the coverage-guided fuzzing loop.
type CoverageOptions struct {
	// Profile shapes both the seed corpus and the mutation bounds:
	// mutations never push a scenario outside the profile's ranges.
	// Unset fields default as in Generate.
	Profile Profile
	// Seed drives every random decision of the loop.
	Seed int64
	// Rounds is the number of rounds including the seed round
	// (default 4).
	Rounds int
	// PerRound is the number of scenarios generated and verified per
	// round (default 8).
	PerRound int
	// Diff configures the oracle panel that evaluates each round;
	// Workers only changes wall-clock, never the corpus.
	Diff DiffOptions
}

func (o CoverageOptions) withDefaults() CoverageOptions {
	if o.Rounds <= 0 {
		o.Rounds = 4
	}
	if o.PerRound <= 0 {
		o.PerRound = 8
	}
	return o
}

// RoundStats is the per-round corpus telemetry FuzzCoverage streams.
type RoundStats struct {
	// Round is the 0-based round index; round 0 is the blind seed round.
	Round int
	// Scenarios is the number of scenarios verified this round.
	Scenarios int
	// NewBuckets is how many coverage buckets this round discovered.
	NewBuckets int
	// Buckets is the cumulative distinct-bucket count.
	Buckets int
	// Corpus is the corpus size after the round (seed + keepers).
	Corpus int
	// Disagreements counts oracle disagreements seen this round.
	Disagreements int
}

// CoverageResult is the outcome of a coverage-guided fuzzing run.
type CoverageResult struct {
	// Corpus holds every scenario that discovered at least one new
	// bucket, in discovery order — the coverage-ranked corpus.
	Corpus []engine.Scenario
	// Buckets is the final CoverageSet.
	Buckets CoverageSet
	// Rounds is the per-round telemetry, one entry per round.
	Rounds []RoundStats
	// Disagreements collects every oracle disagreement found, in
	// (round, index) order — the fuzzing payload.
	Disagreements []DiffResult
}

// corpusEntry is one power-schedule slot: a scenario plus the energy
// bookkeeping that biases parent selection toward productive inputs.
type corpusEntry struct {
	scn        engine.Scenario
	discovered int // buckets this entry minted when it was admitted
	picks      int // times it has been chosen as a mutation parent
}

// energy is the entry's selection weight: proportional to what it
// discovered, decaying as it gets picked, never below 1 so no entry
// starves.
func (e *corpusEntry) energy() int {
	en := e.discovered * 8 / (1 + e.picks)
	if en < 1 {
		en = 1
	}
	return en
}

// FuzzCoverage runs the coverage-guided loop: a blind seed round from
// the profile, then Rounds-1 mutation rounds whose inputs are drawn
// from the corpus by the power schedule. onRound, when non-nil, is
// called after each round with that round's stats — the streaming hook
// cmd/mcafuzz and mcaserved use. The result is deterministic in
// (Profile, Seed, Rounds, PerRound, Diff.Engines): same inputs, same
// corpus, byte-for-byte, at any Diff.Workers.
func FuzzCoverage(ctx context.Context, opts CoverageOptions, onRound func(RoundStats)) (CoverageResult, error) {
	opts = opts.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Profile.Validate(); err != nil {
		return CoverageResult{}, err
	}
	p := opts.Profile.withDefaults()

	// The mutation stream is separate from the per-scenario generation
	// streams (which key on subSeed(seed, i)); index -1 never collides
	// with a scenario index.
	rng := rand.New(rand.NewSource(subSeed(opts.Seed, -1)))

	res := CoverageResult{Buckets: CoverageSet{}}
	var corpus []*corpusEntry
	blind := 0 // next blind scenario index, so fallback rounds never repeat round 0

	for round := 0; round < opts.Rounds; round++ {
		var batch []engine.Scenario
		if round == 0 || len(corpus) == 0 {
			batch = make([]engine.Scenario, opts.PerRound)
			for i := range batch {
				s, err := generateOne(p, opts.Seed, blind)
				if err != nil {
					return CoverageResult{}, err
				}
				blind++
				batch[i] = s
			}
		} else {
			batch = make([]engine.Scenario, opts.PerRound)
			for i := range batch {
				parent := pickParent(rng, corpus)
				parent.picks++
				m := mutateScenario(rng, p, parent.scn)
				m.Name = fmt.Sprintf("cov-s%d-r%d-%02d", opts.Seed, round, i)
				batch[i] = m
			}
		}

		results, _ := DiffSweep(ctx, batch, opts.Diff)
		rs := RoundStats{Round: round, Scenarios: len(batch)}
		// Results are indexed by scenario position, so this fold is the
		// same at any worker count.
		for i := range results {
			r := &results[i]
			if !r.Agree {
				rs.Disagreements++
				res.Disagreements = append(res.Disagreements, *r)
			}
			if n := res.Buckets.AddResult(r); n > 0 {
				rs.NewBuckets += n
				res.Corpus = append(res.Corpus, batch[i])
				corpus = append(corpus, &corpusEntry{scn: batch[i], discovered: n})
			}
		}
		rs.Buckets = len(res.Buckets)
		rs.Corpus = len(corpus)
		res.Rounds = append(res.Rounds, rs)
		if onRound != nil {
			onRound(rs)
		}
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
	}
	return res, nil
}

// pickParent draws one corpus entry with probability proportional to
// its energy — the power schedule. corpus is non-empty.
func pickParent(rng *rand.Rand, corpus []*corpusEntry) *corpusEntry {
	total := 0
	for _, e := range corpus {
		total += e.energy()
	}
	r := rng.Intn(total)
	for _, e := range corpus {
		r -= e.energy()
		if r < 0 {
			return e
		}
	}
	return corpus[len(corpus)-1]
}

// mutateScenario applies one to two random mutations along the sweep's
// merge-patch axes, keeping the scenario inside the profile's ranges
// and always valid (constructible agents, connected graph). A mutation
// that cannot apply to this scenario falls through to the next axis, so
// the call always returns a well-formed scenario even when it equals
// the parent.
func mutateScenario(rng *rand.Rand, p Profile, s engine.Scenario) engine.Scenario {
	c := copyScenario(s)
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			c = mutAgents(rng, p, c)
		case 1:
			mutEdges(rng, c)
		case 2:
			mutFaults(rng, p, &c)
		case 3:
			mutBounds(rng, p, &c)
		default:
			mutValuations(rng, p, c)
		}
	}
	return c
}

// mutAgents grows or shrinks the agent set within the profile range.
// Growth clones a random existing spec (fresh valuations, next ID) and
// wires the new node to a random existing one so the graph stays
// connected; shrink reuses the shrinker's dropAgent.
func mutAgents(rng *rand.Rand, p Profile, s engine.Scenario) engine.Scenario {
	n := len(s.AgentSpecs)
	grow := rng.Intn(2) == 0
	if grow && n < p.Agents.Max && s.Graph != nil {
		src := s.AgentSpecs[rng.Intn(n)]
		cfg := src
		cfg.ID = mca.AgentID(n)
		cfg.Base = make([]int64, len(src.Base))
		for j := range cfg.Base {
			cfg.Base[j] = 1 + rng.Int63n(p.BaseMax)
		}
		if src.Demands != nil {
			cfg.Demands = append([]int64(nil), src.Demands...)
		}
		if _, err := mca.NewAgent(cfg); err != nil {
			return s
		}
		g := graph.New(n + 1)
		for _, e := range s.Graph.Edges() {
			g.AddWeightedEdge(e.U, e.V, e.Weight)
		}
		g.AddEdge(n, rng.Intn(n))
		s.AgentSpecs = append(s.AgentSpecs, cfg)
		s.Graph = g
		return s
	}
	if n > p.Agents.Min && n > 1 {
		c := dropAgent(s, rng.Intn(n))
		if c.Graph != nil && !c.Graph.Connected() {
			// Removing a cut vertex disconnected the protocol; skip
			// rather than hand the oracle a trivially violating mutant.
			return s
		}
		return c
	}
	return s
}

// mutEdges toggles one topology edge in place: it adds a random absent
// edge, or removes a random present one when removal keeps the graph
// connected (a disconnected protocol trivially violates and would flood
// the corpus with one uninteresting bucket).
func mutEdges(rng *rand.Rand, s engine.Scenario) {
	g := s.Graph
	if g == nil || g.N() < 2 {
		return
	}
	if rng.Intn(2) == 0 {
		// Add: pick among absent pairs, if any.
		type pair struct{ u, v int }
		var absent []pair
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				if !g.HasEdge(u, v) {
					absent = append(absent, pair{u, v})
				}
			}
		}
		if len(absent) > 0 {
			e := absent[rng.Intn(len(absent))]
			g.AddEdge(e.u, e.v)
			return
		}
	}
	edges := g.Edges()
	if len(edges) == 0 {
		return
	}
	e := edges[rng.Intn(len(edges))]
	g.RemoveEdge(e.U, e.V)
	if !g.Connected() {
		g.AddWeightedEdge(e.U, e.V, e.Weight)
	}
}

// mutFaults nudges one fault intensity within the profile bounds —
// including the duplication and reorder knobs, which is how the loop
// reaches the new adversaries even from a fault-free parent.
func mutFaults(rng *rand.Rand, p Profile, s *engine.Scenario) {
	// Unlike the blind generator, the mutation engine may escalate onto
	// a fault axis the profile never draws (zero knob), the way a fuzzer
	// probes beyond its seed distribution; the fallback caps below stay
	// conservative.
	f := &s.Faults
	switch rng.Intn(5) {
	case 0:
		max := p.DropMax
		if max == 0 {
			max = 0.3
		}
		f.Drop = float64(int(rng.Float64()*max*100)) / 100
	case 1:
		max := p.DelayMax
		if max == 0 {
			max = 4
		}
		f.Delay = rng.Intn(max + 1)
	case 2:
		max := p.DupMax
		if max == 0 {
			max = 0.5
		}
		f.Duplicate = float64(int(rng.Float64()*max*100)) / 100
	case 3:
		max := p.ReorderMax
		if max == 0 {
			max = 3
		}
		f.Reorder = rng.Intn(max + 1)
	default:
		if len(f.Partitions) > 0 {
			f.Partitions = nil
			f.HealAfter = 0
		} else if n := len(s.AgentSpecs); n >= 2 {
			cut := 1 + rng.Intn(n-1)
			perm := rng.Perm(n)
			f.Partitions = [][]int{perm[:cut], perm[cut:]}
			if p.HealAfterMax > 0 {
				f.HealAfter = rng.Intn(p.HealAfterMax + 1)
			}
		}
	}
}

// mutBounds perturbs the exploration budget and channel semantics.
func mutBounds(rng *rand.Rand, p Profile, s *engine.Scenario) {
	switch rng.Intn(3) {
	case 0:
		ms := s.Explore.MaxStates
		if rng.Intn(2) == 0 {
			ms *= 2
		} else {
			ms /= 2
		}
		if ms < p.MaxStates.Min {
			ms = p.MaxStates.Min
		}
		if ms > p.MaxStates.Max {
			ms = p.MaxStates.Max
		}
		s.Explore.MaxStates = ms
	case 1:
		s.Explore.QueueDepth = p.QueueDepths[rng.Intn(len(p.QueueDepths))]
	default:
		s.Explore.DuplicateDeliveries = !s.Explore.DuplicateDeliveries
	}
}

// mutValuations redraws one agent's private valuation vector.
func mutValuations(rng *rand.Rand, p Profile, s engine.Scenario) {
	if len(s.AgentSpecs) == 0 {
		return
	}
	cfg := &s.AgentSpecs[rng.Intn(len(s.AgentSpecs))]
	for j := range cfg.Base {
		cfg.Base[j] = 1 + rng.Int63n(p.BaseMax)
	}
}
