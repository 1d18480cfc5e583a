package mcaverify_test

import (
	"context"
	"testing"

	mcaverify "repro"
)

// The quickstart flow from the package documentation must work verbatim.
func TestQuickstartFlow(t *testing.T) {
	pol := mcaverify.Policy{Target: 2, Utility: mcaverify.SubmodularResidual{}, Rebid: mcaverify.RebidOnChange}
	s := mcaverify.Scenario{
		Name: "demo",
		AgentSpecs: []mcaverify.AgentConfig{
			{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol},
			{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol},
		},
		Graph: mcaverify.CompleteGraph(2),
	}
	res := mcaverify.Verify(context.Background(), s, nil)
	if res.Status != mcaverify.ResultHolds {
		t.Fatalf("quickstart check failed: %v (%v)", res.Status, res.Violation)
	}
}

func TestFacadeSyncRun(t *testing.T) {
	pol := mcaverify.Policy{Target: 1, Utility: mcaverify.FlatUtility{}, Rebid: mcaverify.RebidOnChange}
	var agents []*mcaverify.Agent
	for i := 0; i < 3; i++ {
		a, err := mcaverify.NewAgent(mcaverify.AgentConfig{
			ID: mcaverify.AgentID(i), Items: 2, Base: []int64{int64(10 + i), int64(20 - i)}, Policy: pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	g := mcaverify.RingGraph(3)
	r, err := mcaverify.NewSyncRunner(agents, g)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Run(2*mcaverify.MessageBound(g, 2) + 2)
	if !out.Converged {
		t.Fatalf("sync run did not converge: %+v", out)
	}
}

func TestFacadeAsyncRun(t *testing.T) {
	pol := mcaverify.Policy{Target: 1, Utility: mcaverify.FlatUtility{}, Rebid: mcaverify.RebidOnChange}
	var agents []*mcaverify.Agent
	for i := 0; i < 2; i++ {
		a, err := mcaverify.NewAgent(mcaverify.AgentConfig{
			ID: mcaverify.AgentID(i), Items: 1, Base: []int64{int64(5 + i)}, Policy: pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	out := mcaverify.RunAsync(agents, mcaverify.CompleteGraph(2), 42, 500)
	if !out.Converged {
		t.Fatalf("async run did not converge: %+v", out)
	}
}

func TestFacadeTopologies(t *testing.T) {
	if mcaverify.LineGraph(4).Diameter() != 3 {
		t.Error("line")
	}
	if mcaverify.StarGraph(5).Diameter() != 2 {
		t.Error("star")
	}
	if !mcaverify.RandomConnectedGraph(6, 0.3, 1).Connected() {
		t.Error("random connected")
	}
}

func TestFacadeModelMeasurement(t *testing.T) {
	sc := mcaverify.ModelScope{PNodes: 2, VNodes: 1, Values: 2, States: 2, Msgs: 1}
	n, err := mcaverify.BuildNaiveModel(sc)
	if err != nil {
		t.Fatal(err)
	}
	o, err := mcaverify.BuildOptimizedModel(sc)
	if err != nil {
		t.Fatal(err)
	}
	mn, mo := mcaverify.MeasureModel(n), mcaverify.MeasureModel(o)
	if mn.Clauses == 0 || mo.Clauses == 0 {
		t.Fatal("zero clause counts")
	}
	if mcaverify.PaperModelScope().PNodes != 3 {
		t.Error("paper scope")
	}
}

func TestFacadeEmbedding(t *testing.T) {
	g := mcaverify.CompleteGraph(3)
	for _, e := range g.Edges() {
		g.AddWeightedEdge(e.U, e.V, 10)
	}
	phys := &mcaverify.PhysicalNetwork{
		Graph: g,
		Nodes: []mcaverify.PhysicalNode{{CPU: 50}, {CPU: 50}, {CPU: 50}},
	}
	emb, err := mcaverify.NewEmbedder(phys, mcaverify.EmbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vnet := &mcaverify.VirtualNetwork{
		Nodes: []mcaverify.VirtualNode{{CPU: 10}, {CPU: 20}},
		Links: []mcaverify.VirtualLink{{A: 0, B: 1, Bandwidth: 2}},
	}
	m, _, err := emb.Embed(vnet)
	if err != nil {
		t.Fatal(err)
	}
	if err := mcaverify.ValidateMapping(phys, vnet, m); err != nil {
		t.Fatal(err)
	}
}

func TestViolationConstantsDistinct(t *testing.T) {
	kinds := []mcaverify.ViolationKind{
		mcaverify.ViolationNone, mcaverify.ViolationOscillation,
		mcaverify.ViolationBoundExceeded, mcaverify.ViolationDisagreement,
		mcaverify.ViolationConflict,
	}
	seen := map[mcaverify.ViolationKind]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Fatalf("duplicate violation constant %v", k)
		}
		seen[k] = true
	}
}

// The parallel explicit engine must agree with the serial one.
func TestFacadeParallelConvergence(t *testing.T) {
	pol := mcaverify.Policy{Target: 2, Utility: mcaverify.SubmodularResidual{}, Rebid: mcaverify.RebidOnChange}
	s := mcaverify.Scenario{
		Name: "parallel",
		AgentSpecs: []mcaverify.AgentConfig{
			{ID: 0, Items: 3, Base: []int64{10, 2, 30}, Policy: pol},
			{ID: 1, Items: 3, Base: []int64{20, 15, 2}, Policy: pol},
		},
		Graph: mcaverify.CompleteGraph(2),
	}
	serial := mcaverify.Verify(context.Background(), s, mcaverify.ExplicitEngine{})
	par := mcaverify.Verify(context.Background(), s, mcaverify.ExplicitEngine{Workers: 3})
	if par.Status != serial.Status || par.Status != mcaverify.ResultHolds {
		t.Fatalf("facade parallel %v, serial %v", par.Status, serial.Status)
	}
	if par.Stats.States != serial.Stats.States {
		t.Fatalf("facade parallel explored %d states, serial %d", par.Stats.States, serial.Stats.States)
	}
}

// TestVerifyFacade drives the engine layer through the public API: one
// Scenario checked on the automatic, explicit, parallel, and
// simulation backends, all agreeing.
func TestVerifyFacade(t *testing.T) {
	pol := mcaverify.Policy{Target: 2, Utility: mcaverify.SubmodularResidual{}, Rebid: mcaverify.RebidOnChange}
	s := mcaverify.Scenario{
		Name: "facade",
		AgentSpecs: []mcaverify.AgentConfig{
			{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol},
			{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol},
		},
		Graph: mcaverify.CompleteGraph(2),
	}
	for _, e := range []mcaverify.Engine{nil, mcaverify.ExplicitEngine{}, mcaverify.ExplicitEngine{Workers: 2}, mcaverify.SimulationEngine{Runs: 4}} {
		res := mcaverify.Verify(context.Background(), s, e)
		if res.Status != mcaverify.ResultHolds {
			t.Fatalf("engine %v: %v (err=%v)", e, res.Status, res.Err)
		}
	}
}

// TestVerifyAllFacade sweeps a small batch, including a fault-model
// scenario, and checks the aggregate summary is coherent.
func TestVerifyAllFacade(t *testing.T) {
	pol := mcaverify.Policy{Target: 2, Utility: mcaverify.SubmodularResidual{}, Rebid: mcaverify.RebidOnChange}
	specs := []mcaverify.AgentConfig{
		{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol},
		{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol},
	}
	g := mcaverify.CompleteGraph(2)
	scenarios := []mcaverify.Scenario{
		{Name: "reliable", AgentSpecs: specs, Graph: g},
		{Name: "lossy", AgentSpecs: specs, Graph: g, Faults: mcaverify.NetworkFaults{Drop: 0.9}},
		{Name: "partitioned", AgentSpecs: specs, Graph: g, Faults: mcaverify.NetworkFaults{Partitions: [][]int{{0}, {1}}}},
	}
	results, sum := mcaverify.VerifyAll(context.Background(), scenarios, mcaverify.RunnerOptions{Workers: 2})
	if len(results) != len(scenarios) || sum.Total != len(scenarios) {
		t.Fatalf("result count %d, summary %+v", len(results), sum)
	}
	if results[0].Status != mcaverify.ResultHolds {
		t.Fatalf("reliable scenario: %v", results[0].Status)
	}
	if results[1].Status != mcaverify.ResultViolated || results[2].Status != mcaverify.ResultViolated {
		t.Fatalf("fault scenarios: %v, %v", results[1].Status, results[2].Status)
	}
	if sum.Holds != 1 || sum.Violated != 2 {
		t.Fatalf("summary wrong: %+v", sum)
	}
}

// TestFacadeFuzzCoverage runs a tiny coverage-guided loop through the
// public surface: the corpus is non-trivial, every corpus scenario
// round-trips through the canonical codec, and the streamed rounds
// match the result.
func TestFacadeFuzzCoverage(t *testing.T) {
	p := mcaverify.DefaultFuzzProfile()
	p.Agents = mcaverify.FuzzIntRange{Min: 2, Max: 3}
	p.Items = mcaverify.FuzzIntRange{Min: 2, Max: 2}
	p.MaxStates = mcaverify.FuzzIntRange{Min: 1000, Max: 5000}
	p.ModelProb = 0
	var streamed int
	res, err := mcaverify.FuzzCoverage(context.Background(), mcaverify.FuzzCoverageOptions{
		Profile: p, Seed: 1, Rounds: 2, PerRound: 4,
	}, func(mcaverify.FuzzRoundStats) { streamed++ })
	if err != nil {
		t.Fatal(err)
	}
	if streamed != 2 || len(res.Rounds) != 2 {
		t.Fatalf("streamed %d rounds, result has %d", streamed, len(res.Rounds))
	}
	if len(res.Buckets) == 0 || len(res.Corpus) == 0 {
		t.Fatalf("empty coverage run: %d buckets, %d corpus", len(res.Buckets), len(res.Corpus))
	}
	for i := range res.Corpus {
		data, err := mcaverify.EncodeScenario(&res.Corpus[i])
		if err != nil {
			t.Fatalf("corpus[%d]: %v", i, err)
		}
		if _, err := mcaverify.DecodeScenario(data); err != nil {
			t.Fatalf("corpus[%d] does not round-trip: %v", i, err)
		}
	}
}
