package gen

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mca"
)

// coverageProfile pins the coverage-loop test corpus: small honest
// scenarios, no blind faults and no relational models, so every blind
// bucket is dynamic-exact — the fault axes are reachable only through
// the mutation engine, which is what the statistical test measures.
func coverageProfile() Profile {
	return Profile{
		Agents:    IntRange{Min: 2, Max: 3},
		Items:     IntRange{Min: 2, Max: 2},
		MaxStates: IntRange{Min: 1000, Max: 8000},
	}
}

func TestCoverageSetAddResult(t *testing.T) {
	explored := engine.Stats{States: 1024, MaxDepth: 16}
	res := func(status engine.Status, st engine.Stats) *DiffResult {
		return &DiffResult{Legs: []Leg{{
			Engine: "explicit",
			Class:  ClassDynamicExact,
			Result: engine.Result{Status: status, Stats: st},
		}}}
	}
	cs := CoverageSet{}
	if n := cs.AddResult(res(engine.StatusHolds, explored)); n != 1 {
		t.Fatalf("first holds bucket: %d new, want 1", n)
	}
	if n := cs.AddResult(res(engine.StatusHolds, explored)); n != 0 {
		t.Fatalf("duplicate bucket counted: %d", n)
	}
	// Same shape, opposite verdict is a different discovery.
	if n := cs.AddResult(res(engine.StatusViolated, explored)); n != 1 {
		t.Fatalf("violated twin bucket: %d new, want 1", n)
	}
	// Inconclusive legs and zero signatures never mint buckets.
	if n := cs.AddResult(res(engine.StatusInconclusive, explored)); n != 0 {
		t.Fatalf("inconclusive leg minted a bucket")
	}
	if n := cs.AddResult(res(engine.StatusHolds, engine.Stats{Clauses: 99})); n != 0 {
		t.Fatalf("zero signature minted a bucket")
	}
	if len(cs) != 2 {
		t.Fatalf("set size %d, want 2", len(cs))
	}
}

// TestSignatureOfBuckets pins both formulas: an explored state space
// buckets states, depth and their ratio; sampled executions bucket
// deliveries, convergences and fault activity; a leg with neither (SAT)
// has the zero signature.
func TestSignatureOfBuckets(t *testing.T) {
	for _, tc := range []struct {
		st   engine.Stats
		want Signature
	}{
		{engine.Stats{}, Signature{}},
		{engine.Stats{States: 1, MaxDepth: 1}, Signature{Occupancy: 1, Depth: 1, Shape: 1}},
		{engine.Stats{States: 1024, MaxDepth: 16}, Signature{Occupancy: 11, Depth: 5, Shape: 7}},
		{engine.Stats{States: 1500, MaxDepth: 16}, Signature{Occupancy: 11, Depth: 5, Shape: 7}},
		// Same occupancy, different aspect ratio: Shape separates them.
		{engine.Stats{States: 1024, MaxDepth: 512}, Signature{Occupancy: 11, Depth: 10, Shape: 2}},
		{engine.Stats{States: 99, MissProb: 1.25e-7, Capped: true}, Signature{Occupancy: 7}},
		{engine.Stats{Runs: 8, Converged: 8, Deliveries: 420, Dropped: 3, Duplicated: 17}, Signature{Occupancy: 9, Depth: 4, Shape: 5}},
		{engine.Stats{Runs: 3, Converged: 2, Deliveries: 100, Dropped: 4}, Signature{Occupancy: 7, Depth: 2, Shape: 3}},
		// No run converged and no fault fired: only the delivery volume.
		{engine.Stats{Runs: 4, Deliveries: 64}, Signature{Occupancy: 7}},
		{engine.Stats{PrimaryVars: 10, AuxVars: 20, Clauses: 99, Conflicts: 5}, Signature{}},
	} {
		if got := signatureOf(&tc.st); got != tc.want {
			t.Errorf("signatureOf(%+v) = %+v, want %+v", tc.st, got, tc.want)
		}
	}
}

// TestSignatureWorkerInvariant pins the property the coverage loop
// leans on: the signature comes only from counters that are
// deterministic at any worker count, so the serial DFS and the sharded
// frontier produce the same coverage coordinate for one scenario.
func TestSignatureWorkerInvariant(t *testing.T) {
	pol := mca.Policy{Target: 2, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	s := engine.Scenario{
		Name: "invariant",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 3, Base: []int64{10, 0, 30}, Policy: pol},
			{ID: 1, Items: 3, Base: []int64{20, 15, 0}, Policy: pol},
		},
		Graph: graph.Complete(2),
	}
	serial := engine.Explicit{}.Verify(context.Background(), s)
	want := signatureOf(&serial.Stats)
	if want == (Signature{}) {
		t.Fatalf("serial run has no signature: %+v", serial.Stats)
	}
	for _, workers := range []int{1, 2, 4} {
		par := frontier{workers}.Verify(context.Background(), s)
		if got := signatureOf(&par.Stats); got != want {
			t.Fatalf("workers=%d signature %+v differs from serial %+v", workers, got, want)
		}
	}
}

// TestFuzzCoverageDeterministicAcrossWorkers pins the replay contract:
// the same (profile, seed, rounds, per-round) call produces a
// byte-identical coverage-guided corpus and identical round telemetry
// at any oracle worker count.
func TestFuzzCoverageDeterministicAcrossWorkers(t *testing.T) {
	opts := CoverageOptions{Profile: coverageProfile(), Seed: 7, Rounds: 3, PerRound: 4}
	var corpora [][][]byte
	var rounds [][]RoundStats
	for _, workers := range []int{1, 8} {
		opts.Diff = DiffOptions{Workers: workers}
		res, err := FuzzCoverage(context.Background(), opts, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var enc [][]byte
		for i := range res.Corpus {
			data, err := engine.EncodeScenario(&res.Corpus[i])
			if err != nil {
				t.Fatalf("workers=%d: corpus[%d]: %v", workers, i, err)
			}
			enc = append(enc, data)
		}
		corpora = append(corpora, enc)
		rounds = append(rounds, res.Rounds)
	}
	if len(corpora[0]) != len(corpora[1]) {
		t.Fatalf("corpus sizes differ across worker counts: %d vs %d", len(corpora[0]), len(corpora[1]))
	}
	for i := range corpora[0] {
		if !bytes.Equal(corpora[0][i], corpora[1][i]) {
			t.Fatalf("corpus[%d] differs across worker counts:\n%s\n%s", i, corpora[0][i], corpora[1][i])
		}
	}
	if len(rounds[0]) != len(rounds[1]) {
		t.Fatalf("round counts differ: %d vs %d", len(rounds[0]), len(rounds[1]))
	}
	for i := range rounds[0] {
		if rounds[0][i] != rounds[1][i] {
			t.Fatalf("round %d stats differ across worker counts: %+v vs %+v", i, rounds[0][i], rounds[1][i])
		}
	}
}

// TestCoverageBeatsBlindGeneration is the statistical gate on the
// tentpole: at the same scenario budget, the coverage-guided loop must
// reach strictly more distinct store-signature buckets than blind
// generation, on the median over three seeds. Both sides are fully
// deterministic (seeded generation, seeded mutation schedule, seeded
// simulation legs), so the comparison cannot flake — it is a regression
// test on the feedback loop's value, not a sampling experiment.
func TestCoverageBeatsBlindGeneration(t *testing.T) {
	const rounds, perRound = 6, 5
	p := coverageProfile()
	var guided, blind []int
	for _, seed := range []int64{1, 2, 3} {
		res, err := FuzzCoverage(context.Background(),
			CoverageOptions{Profile: p, Seed: seed, Rounds: rounds, PerRound: perRound}, nil)
		if err != nil {
			t.Fatal(err)
		}
		guided = append(guided, len(res.Buckets))

		scenarios, err := Generate(p, seed, rounds*perRound)
		if err != nil {
			t.Fatal(err)
		}
		results, _ := DiffSweep(context.Background(), scenarios, DiffOptions{})
		cs := CoverageSet{}
		for i := range results {
			cs.AddResult(&results[i])
		}
		blind = append(blind, len(cs))
	}
	median := func(v []int) int {
		s := append([]int(nil), v...)
		sort.Ints(s)
		return s[len(s)/2]
	}
	mg, mb := median(guided), median(blind)
	t.Logf("distinct buckets at budget %d: guided %v (median %d), blind %v (median %d)",
		rounds*perRound, guided, mg, blind, mb)
	if mg <= mb {
		t.Fatalf("coverage-guided median %d buckets not above blind median %d", mg, mb)
	}
}

// TestFuzzCoverageRoundStatsStream checks the streaming hook: one
// callback per round, with monotone cumulative counters that match the
// final result.
func TestFuzzCoverageRoundStatsStream(t *testing.T) {
	var seen []RoundStats
	res, err := FuzzCoverage(context.Background(),
		CoverageOptions{Profile: coverageProfile(), Seed: 5, Rounds: 3, PerRound: 4},
		func(rs RoundStats) { seen = append(seen, rs) })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("callback fired %d times, want 3", len(seen))
	}
	for i, rs := range seen {
		if rs.Round != i || rs.Scenarios != 4 {
			t.Errorf("round %d stats malformed: %+v", i, rs)
		}
		if i > 0 && (rs.Buckets < seen[i-1].Buckets || rs.Corpus < seen[i-1].Corpus) {
			t.Errorf("cumulative counters regressed: %+v after %+v", rs, seen[i-1])
		}
		if rs != res.Rounds[i] {
			t.Errorf("streamed round %d differs from result: %+v vs %+v", i, rs, res.Rounds[i])
		}
	}
	last := seen[len(seen)-1]
	if last.Buckets != len(res.Buckets) || last.Corpus != len(res.Corpus) {
		t.Errorf("final round stats %+v disagree with result (%d buckets, %d corpus)",
			last, len(res.Buckets), len(res.Corpus))
	}
}

// TestMutateScenarioStaysValid hammers the mutation engine and checks
// every mutant is well-formed: constructible agents, a connected graph
// sized to the agent set, fault intensities inside [0,1], and bounds
// inside the profile ranges — the invariants FuzzCoverage relies on to
// never feed the oracle a malformed scenario.
func TestMutateScenarioStaysValid(t *testing.T) {
	p := coverageProfile().withDefaults()
	seeds, err := Generate(p, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	cur := seeds
	for step := 0; step < 200; step++ {
		parent := cur[step%len(cur)]
		m := mutateScenario(rng, p, parent)
		if len(m.AgentSpecs) < 1 || len(m.AgentSpecs) > p.Agents.Max {
			t.Fatalf("step %d: %d agents outside profile", step, len(m.AgentSpecs))
		}
		if m.Graph == nil || m.Graph.N() != len(m.AgentSpecs) {
			t.Fatalf("step %d: graph/agent mismatch", step)
		}
		if !m.Graph.Connected() {
			t.Fatalf("step %d: mutant graph disconnected", step)
		}
		for _, cfg := range m.AgentSpecs {
			if _, err := mca.NewAgent(cfg); err != nil {
				t.Fatalf("step %d: agent %d invalid: %v", step, cfg.ID, err)
			}
		}
		f := m.Faults
		if f.Drop < 0 || f.Drop > 1 || f.Duplicate < 0 || f.Duplicate > 1 || f.Reorder < 0 {
			t.Fatalf("step %d: fault intensities out of range: %+v", step, f)
		}
		if m.Explore.MaxStates < p.MaxStates.Min || m.Explore.MaxStates > p.MaxStates.Max {
			t.Fatalf("step %d: MaxStates %d outside profile", step, m.Explore.MaxStates)
		}
		// Mutating must never alias the parent's slices or graph.
		if &m.AgentSpecs[0].Base[0] == &parent.AgentSpecs[0].Base[0] {
			t.Fatalf("step %d: mutant aliases parent valuations", step)
		}
		cur[step%len(cur)] = m
	}
}
