package gen

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/netsim"
	"repro/internal/sat"
)

// bloatedFailure embeds the Fig. 2 oscillation core (two agents with
// mirrored valuations, non-submodular utility, release-outbid) in a
// larger scenario: an extra bystander agent, a worthless third item,
// duplicate-delivery exploration, and a non-default bound slack. The
// shrinker should strip all of it and leave the two-agent core.
func bloatedFailure() engine.Scenario {
	fight := mca.Policy{Target: 2, Utility: mca.NonSubmodularSynergy{}, Rebid: mca.RebidOnChange, ReleaseOutbid: true}
	idle := mca.Policy{Target: 1, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	return engine.Scenario{
		Name: "bloated-failure",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 3, Base: []int64{10, 15, 0}, Policy: fight},
			{ID: 1, Items: 3, Base: []int64{15, 10, 0}, Policy: fight},
			{ID: 2, Items: 3, Base: []int64{1, 1, 2}, Policy: idle},
		},
		Graph:   graph.Complete(3),
		Explore: explore.Options{MaxStates: 20000, BoundSlack: 8, DuplicateDeliveries: true},
	}
}

func TestShrinkFailureInvariants(t *testing.T) {
	ctx := context.Background()
	s := bloatedFailure()
	eng := engine.Explicit{}

	ref := eng.Verify(ctx, s)
	if ref.Status != engine.StatusViolated || ref.Violation != explore.ViolationOscillation {
		t.Fatalf("seed scenario does not oscillate: %v (%v)", ref.Status, ref.Violation)
	}

	shrunk, stats, err := ShrinkFailure(ctx, s, eng, ShrinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Invariant: never larger, and for this construction strictly
	// smaller (the bystander and the extra item are removable noise).
	if Size(&shrunk) >= Size(&s) {
		t.Fatalf("shrunk size %d not smaller than input %d", Size(&shrunk), Size(&s))
	}
	// Invariant: the shrunk scenario still fails the same way.
	res := eng.Verify(ctx, shrunk)
	if res.Status != engine.StatusViolated || res.Violation != ref.Violation {
		t.Fatalf("shrunk scenario lost the failure: %v (%v)", res.Status, res.Violation)
	}
	// The minimum for this failure is the Fig. 2 core itself.
	if len(shrunk.AgentSpecs) != 2 {
		t.Errorf("shrink kept %d agents (want the 2-agent core)", len(shrunk.AgentSpecs))
	}
	if shrunk.AgentSpecs[0].Items != 2 {
		t.Errorf("shrink kept %d items (want 2)", shrunk.AgentSpecs[0].Items)
	}
	if shrunk.Explore.DuplicateDeliveries || shrunk.Explore.BoundSlack != 0 {
		t.Error("shrink kept exploration noise")
	}
	if stats.Accepted == 0 || stats.Tried == 0 {
		t.Errorf("implausible stats: %+v", stats)
	}
	if stats.From != Size(&s) || stats.To != Size(&shrunk) {
		t.Errorf("stats sizes %d->%d, scenario sizes %d->%d", stats.From, stats.To, Size(&s), Size(&shrunk))
	}
}

// smallFailure is the Fig. 2 core plus noise whose full state space
// stays small enough for the level-synchronous frontier to exhaust: a
// third uncontested item, a relational model, and solver tuning.
func smallFailure(t *testing.T) engine.Scenario {
	t.Helper()
	fight := mca.Policy{Target: 2, Utility: mca.NonSubmodularSynergy{}, Rebid: mca.RebidOnChange, ReleaseOutbid: true}
	m, err := mcamodel.BuildOptimized(mcamodel.Scope{PNodes: 2, VNodes: 2, Values: 4, States: 2, Msgs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return engine.Scenario{
		Name: "small-failure",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 3, Base: []int64{10, 15, 0}, Policy: fight},
			{ID: 1, Items: 3, Base: []int64{15, 10, 0}, Policy: fight},
		},
		Graph:   graph.Complete(2),
		Explore: explore.Options{MaxStates: 50000},
		Model:   m,
		Solver:  sat.Options{RestartBase: 64},
	}
}

// Shrinking through the sharded parallel frontier produces the same
// minimized scenario at every worker count — the engine's determinism
// guarantee carried through the greedy descent.
func TestShrinkDeterministicAcrossWorkerCounts(t *testing.T) {
	ctx := context.Background()
	s := smallFailure(t)
	var outs [][]byte
	for _, workers := range []int{1, 8} {
		shrunk, _, err := ShrinkFailure(ctx, s, engine.Explicit{Workers: workers}, ShrinkOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if shrunk.Model != nil || shrunk.Solver != (sat.Options{}) {
			t.Errorf("workers=%d: model/solver noise not stripped", workers)
		}
		data, err := engine.EncodeScenario(&shrunk)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outs = append(outs, data)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("shrink differs across worker counts:\n%s\n%s", outs[0], outs[1])
	}
}

// A passing scenario has nothing to shrink.
func TestShrinkFailureRejectsPassingScenario(t *testing.T) {
	pol := mca.Policy{Target: 1, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	s := engine.Scenario{
		Name: "passes",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 1, Base: []int64{5}, Policy: pol},
			{ID: 1, Items: 1, Base: []int64{3}, Policy: pol},
		},
		Graph: graph.Complete(2),
	}
	if _, _, err := ShrinkFailure(context.Background(), s, engine.Explicit{}, ShrinkOptions{}); err == nil {
		t.Fatal("expected an error for a passing scenario")
	}
}

// The generic Shrink respects an arbitrary predicate and the MaxTried
// budget, and never returns a larger scenario.
func TestShrinkBudgetAndMonotonicity(t *testing.T) {
	s := bloatedFailure()
	s.Faults = netsim.Faults{Drop: 0.1, DropEdge: map[netsim.Edge]float64{{From: 0, To: 1}: 0.5}}
	tried := 0
	keepAll := func(engine.Scenario) bool { tried++; return true }
	shrunk, stats := Shrink(s, keepAll, ShrinkOptions{MaxTried: 5})
	if stats.Tried > 5 {
		t.Fatalf("budget exceeded: %+v", stats)
	}
	if Size(&shrunk) > Size(&s) {
		t.Fatalf("shrink grew the scenario: %d -> %d", Size(&s), Size(&shrunk))
	}
	if tried != stats.Tried {
		t.Fatalf("predicate calls %d != stats.Tried %d", tried, stats.Tried)
	}

	// A predicate that rejects everything keeps the scenario intact.
	same, stats := Shrink(s, func(engine.Scenario) bool { return false }, ShrinkOptions{})
	if Size(&same) != Size(&s) || stats.Accepted != 0 {
		t.Fatalf("reject-all predicate changed the scenario: %+v", stats)
	}
}

// Ragged item counts are not well formed (engine.Scenario.Validate):
// the shrinker, whose item-drop reduction re-slices every agent alike,
// returns such a scenario as it came instead of panicking.
func TestShrinkRaggedItemCounts(t *testing.T) {
	pol := mca.Policy{Target: 1, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	s := engine.Scenario{
		Name: "ragged",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 3, Base: []int64{5, 4, 3}, Policy: pol},
			{ID: 1, Items: 2, Base: []int64{2, 1}, Policy: pol},
		},
		Graph: graph.Complete(2),
	}
	shrunk, _ := Shrink(s, func(engine.Scenario) bool { return true }, ShrinkOptions{})
	if Size(&shrunk) > Size(&s) {
		t.Fatalf("shrink grew the scenario: %d -> %d", Size(&s), Size(&shrunk))
	}
	for _, cfg := range shrunk.AgentSpecs {
		if len(cfg.Base) != cfg.Items {
			t.Fatalf("agent %d: %d base values for %d items", cfg.ID, len(cfg.Base), cfg.Items)
		}
	}
}

// TestShrinkRemovesDupReorderNoise extends the never-larger/termination
// properties to the duplication and reordering fault fields: a failure
// that persists without them must shrink to Duplicate == 0 and
// Reorder == 0 via the component-wise zero steps, still fail the same
// way, and never grow.
func TestShrinkRemovesDupReorderNoise(t *testing.T) {
	ctx := context.Background()
	s := bloatedFailure()
	// Probabilistic noise routes the scenario to the sampling engine;
	// the Fig. 2 oscillation diverges there too (no run converges).
	s.Faults = netsim.Faults{Duplicate: 0.25, Reorder: 2}
	eng := engine.Simulation{Runs: 4, BudgetFactor: 4}

	if Size(&s) <= Size(&engine.Scenario{AgentSpecs: s.AgentSpecs, Graph: s.Graph, Explore: s.Explore}) {
		t.Fatal("Size does not count the duplication/reordering components")
	}
	var sawZeroDup, sawZeroReorder bool
	for _, c := range candidates(s) {
		if c.Faults.Duplicate == 0 && c.Faults.Reorder == s.Faults.Reorder {
			sawZeroDup = true
		}
		if c.Faults.Reorder == 0 && c.Faults.Duplicate == s.Faults.Duplicate {
			sawZeroReorder = true
		}
	}
	if !sawZeroDup || !sawZeroReorder {
		t.Fatalf("candidate set lacks component-wise zero steps (dup %v, reorder %v)", sawZeroDup, sawZeroReorder)
	}

	shrunk, stats, err := ShrinkFailure(ctx, s, eng, ShrinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if Size(&shrunk) >= Size(&s) {
		t.Fatalf("shrunk size %d not smaller than input %d", Size(&shrunk), Size(&s))
	}
	if shrunk.Faults.Duplicate != 0 || shrunk.Faults.Reorder != 0 {
		t.Fatalf("fault noise survived the shrink: %+v", shrunk.Faults)
	}
	res := eng.Verify(ctx, shrunk)
	if res.Status != engine.StatusViolated {
		t.Fatalf("shrunk scenario lost the failure: %v", res.Status)
	}
	if stats.Tried > (ShrinkOptions{}).withDefaults().MaxTried {
		t.Fatalf("shrink blew its budget: %+v", stats)
	}
}

// dropAgent remaps the graph and every fault reference consistently.
func TestDropAgentRemapsFaults(t *testing.T) {
	pol := mca.Policy{Target: 1, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	s := engine.Scenario{Name: "remap", Graph: graph.Complete(4)}
	for i := 0; i < 4; i++ {
		s.AgentSpecs = append(s.AgentSpecs, mca.Config{ID: mca.AgentID(i), Items: 1, Base: []int64{int64(i + 1)}, Policy: pol})
	}
	s.Faults = netsim.Faults{
		DropEdge:   map[netsim.Edge]float64{{From: 0, To: 3}: 0.5, {From: 3, To: 2}: 0.25, {From: 0, To: 1}: 0.1},
		DelayEdge:  map[netsim.Edge]int{{From: 2, To: 3}: 2},
		Partitions: [][]int{{0, 1}, {2, 3}},
	}
	c := dropAgent(s, 2)
	if len(c.AgentSpecs) != 3 || c.Graph.N() != 3 {
		t.Fatalf("agent removal left %d specs, %d nodes", len(c.AgentSpecs), c.Graph.N())
	}
	for i, cfg := range c.AgentSpecs {
		if int(cfg.ID) != i {
			t.Fatalf("spec %d has ID %d", i, cfg.ID)
		}
	}
	// Old node 3 is now node 2; edges touching old node 2 are gone.
	if _, ok := c.Faults.DropEdge[netsim.Edge{From: 0, To: 2}]; !ok {
		t.Errorf("edge {0,3} not remapped to {0,2}: %v", c.Faults.DropEdge)
	}
	if len(c.Faults.DropEdge) != 2 {
		t.Errorf("drop-edge map: %v", c.Faults.DropEdge)
	}
	if len(c.Faults.DelayEdge) != 0 {
		t.Errorf("delay edge touching the removed node survived: %v", c.Faults.DelayEdge)
	}
	if len(c.Faults.Partitions) != 2 {
		t.Errorf("partitions: %v", c.Faults.Partitions)
	}
	// The original must be untouched (deep copy).
	if len(s.AgentSpecs) != 4 || s.Graph.N() != 4 || len(s.Faults.DropEdge) != 3 {
		t.Fatal("dropAgent mutated its input")
	}
}
