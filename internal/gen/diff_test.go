package gen

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/netsim"
)

// frontier is the sharded parallel frontier as an oracle leg: the
// differential against the serial DFS that Explicit{Workers: n} once
// provided, kept while the frontier exists. The oracle treats an
// unknown adapter as an exact dynamic checker.
type frontier struct{ workers int }

func (f frontier) Name() string { return fmt.Sprintf("frontier(%d)", f.workers) }

func (f frontier) Verify(_ context.Context, s engine.Scenario) engine.Result {
	agents := make([]*mca.Agent, len(s.AgentSpecs))
	for i, cfg := range s.AgentSpecs {
		agents[i] = mca.MustNewAgent(cfg)
	}
	v := explore.CheckParallel(agents, s.Graph, s.Explore, f.workers)
	res := engine.Result{
		Index: -1, Scenario: s.Name, Engine: f.Name(), Violation: v.Violation, Trace: v.Trace,
		Stats: engine.Stats{States: v.States, MaxDepth: v.MaxDepth, Exhausted: v.Exhausted, Capped: v.Capped},
	}
	switch {
	case v.OK:
		res.Status = engine.StatusHolds
	case v.Violation != explore.ViolationNone:
		res.Status = engine.StatusViolated
	default:
		res.Status = engine.StatusInconclusive
	}
	return res
}

func leg(name string, class LegClass, status engine.Status) Leg {
	return Leg{Engine: name, Class: class, Result: engine.Result{Status: status}}
}

func TestCompareLegsRules(t *testing.T) {
	cases := []struct {
		name  string
		legs  []Leg
		agree bool
	}{
		{"all holds", []Leg{
			leg("explicit", ClassDynamicExact, engine.StatusHolds),
			leg("explicit-parallel", ClassDynamicExact, engine.StatusHolds),
			leg("simulation", ClassDynamicSampling, engine.StatusHolds),
		}, true},
		{"exact engines split", []Leg{
			leg("explicit", ClassDynamicExact, engine.StatusHolds),
			leg("explicit-parallel", ClassDynamicExact, engine.StatusViolated),
		}, false},
		{"sampling may miss a violation", []Leg{
			leg("explicit", ClassDynamicExact, engine.StatusViolated),
			leg("simulation", ClassDynamicSampling, engine.StatusHolds),
		}, true},
		{"sampling must not invent a violation", []Leg{
			leg("explicit", ClassDynamicExact, engine.StatusHolds),
			leg("simulation", ClassDynamicSampling, engine.StatusViolated),
		}, false},
		{"relational split", []Leg{
			leg("sat@naive", ClassRelational, engine.StatusViolated),
			leg("sat@optimized", ClassRelational, engine.StatusHolds),
		}, false},
		{"classes never cross-compare", []Leg{
			leg("explicit", ClassDynamicExact, engine.StatusHolds),
			leg("sat@naive", ClassRelational, engine.StatusViolated),
			leg("sat@optimized", ClassRelational, engine.StatusViolated),
		}, true},
		{"inconclusive legs are ignored", []Leg{
			leg("explicit", ClassDynamicExact, engine.StatusHolds),
			leg("explicit-parallel", ClassDynamicExact, engine.StatusInconclusive),
			leg("simulation", ClassDynamicSampling, engine.StatusError),
		}, true},
	}
	for _, tc := range cases {
		agree, reasons := compareLegs(tc.legs)
		if agree != tc.agree {
			t.Errorf("%s: agree=%v (reasons %v), want %v", tc.name, agree, reasons, tc.agree)
		}
		if !agree && len(reasons) == 0 {
			t.Errorf("%s: disagreement without reasons", tc.name)
		}
	}
}

func TestApplicable(t *testing.T) {
	dynamic := engine.Scenario{Graph: graph.Complete(2)}
	faulty := engine.Scenario{Graph: graph.Complete(2), Faults: netsim.Faults{Drop: 0.5}}
	m, err := mcamodel.BuildOptimized(mcamodel.Scope{PNodes: 2, VNodes: 2, Values: 4, States: 2, Msgs: 1})
	if err != nil {
		t.Fatal(err)
	}
	relational := engine.Scenario{Model: m}
	cases := []struct {
		e    engine.Engine
		s    *engine.Scenario
		want bool
	}{
		{engine.Explicit{}, &dynamic, true},
		{engine.Explicit{}, &faulty, false},
		{engine.Explicit{}, &relational, false},
		{engine.Simulation{}, &faulty, true},
		{engine.Simulation{}, &relational, false},
		{engine.SAT{}, &relational, true},
		{engine.SAT{}, &dynamic, false},
		{engine.Auto{}, &faulty, true},
		{engine.Auto{}, &relational, true},
	}
	for _, tc := range cases {
		if got := Applicable(tc.e, tc.s); got != tc.want {
			t.Errorf("Applicable(%s, ...) = %v, want %v", tc.e.Name(), got, tc.want)
		}
	}
}

// A small real corpus: a convergent dynamic scenario with a relational
// model must produce agreeing legs across the full default panel,
// including the sibling-encoding leg.
func TestDiffVerifyEndToEnd(t *testing.T) {
	pol := mca.Policy{Target: 2, Utility: mca.SubmodularResidual{}, Rebid: mca.RebidOnChange, ReleaseOutbid: true}
	m, err := mcamodel.BuildNaive(mcamodel.Scope{PNodes: 2, VNodes: 2, Values: 4, States: 2, Msgs: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := engine.Scenario{
		Name: "diff-e2e",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol},
			{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol},
		},
		Graph:   graph.Complete(2),
		Explore: explore.Options{MaxStates: 100000},
		Model:   m,
	}
	r := DiffVerify(context.Background(), s, DiffOptions{
		Engines: append(DefaultEngines(), frontier{2}),
	})
	if !r.Agree {
		t.Fatalf("disagreement: %v", r.Reasons)
	}
	// Panel: explicit, simulation, sat@naive plus the sibling
	// sat@optimized leg, and the sharded frontier we appended.
	if len(r.Legs) != 5 {
		names := make([]string, len(r.Legs))
		for i, l := range r.Legs {
			names[i] = l.Engine
		}
		t.Fatalf("got %d legs %v, want 5", len(r.Legs), names)
	}
	sawSibling := false
	for _, l := range r.Legs {
		if l.Engine == "sat@optimized" {
			sawSibling = true
		}
		if l.Class == ClassDynamicExact && l.Result.Status != engine.StatusHolds {
			t.Errorf("%s: %v, want holds", l.Engine, l.Result.Status)
		}
	}
	if !sawSibling {
		t.Error("sibling encoding leg missing")
	}
}

// The oracle catches a broken engine: a stub that always reports holds
// disagrees with the serial DFS on an oscillating scenario.
func TestDiffVerifyFlagsBrokenEngine(t *testing.T) {
	s := engine.Scenario{
		Name: "oscillates",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: mca.Policy{Target: 2, Utility: mca.NonSubmodularSynergy{}, Rebid: mca.RebidOnChange, ReleaseOutbid: true}},
			{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: mca.Policy{Target: 2, Utility: mca.NonSubmodularSynergy{}, Rebid: mca.RebidOnChange, ReleaseOutbid: true}},
		},
		Graph: graph.Complete(2),
	}
	r := DiffVerify(context.Background(), s, DiffOptions{
		Engines: []engine.Engine{engine.Explicit{}, alwaysHolds{}},
	})
	if r.Agree {
		t.Fatal("broken engine not flagged")
	}
}

// alwaysHolds is a deliberately unsound engine for oracle tests.
type alwaysHolds struct{}

func (alwaysHolds) Name() string { return "always-holds" }
func (alwaysHolds) Verify(_ context.Context, s engine.Scenario) engine.Result {
	return engine.Result{Index: -1, Scenario: s.Name, Engine: "always-holds", Status: engine.StatusHolds}
}

// DiffSweep is deterministic across worker counts and its summary adds
// up.
func TestDiffSweepDeterministicAcrossWorkers(t *testing.T) {
	scenarios, err := Generate(Profile{
		Agents:    IntRange{Min: 2, Max: 3},
		MaxStates: IntRange{Min: 2000, Max: 10000},
		FaultProb: 0.5,
	}, 11, 12)
	if err != nil {
		t.Fatal(err)
	}
	var sums []DiffSummary
	var verdicts [][]engine.Status
	for _, workers := range []int{1, 8} {
		rs, sum := DiffSweep(context.Background(), scenarios, DiffOptions{Workers: workers})
		sums = append(sums, sum)
		var vs []engine.Status
		for _, r := range rs {
			if !r.Agree {
				t.Fatalf("workers=%d: scenario %d (%s) disagrees: %v", workers, r.Index, r.Scenario.Name, r.Reasons)
			}
			for _, l := range r.Legs {
				vs = append(vs, l.Result.Status)
			}
		}
		verdicts = append(verdicts, vs)
	}
	if len(verdicts[0]) != len(verdicts[1]) {
		t.Fatalf("leg counts differ: %d vs %d", len(verdicts[0]), len(verdicts[1]))
	}
	for i := range verdicts[0] {
		if verdicts[0][i] != verdicts[1][i] {
			t.Fatalf("leg %d verdict differs across worker counts: %v vs %v", i, verdicts[0][i], verdicts[1][i])
		}
	}
	if sums[0] != sums[1] {
		t.Fatalf("summaries differ: %+v vs %+v", sums[0], sums[1])
	}
	if sums[0].Scenarios != 12 || sums[0].Legs == 0 {
		t.Fatalf("summary shape: %+v", sums[0])
	}
}

func TestParseEngines(t *testing.T) {
	engines, err := ParseEngines("explicit, simulation,sat-portfolio")
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) != 3 {
		t.Fatalf("got %d engines", len(engines))
	}
	if engines[2].Name() != "sat-portfolio" {
		t.Fatalf("unexpected engine %q", engines[2].Name())
	}
	for _, tok := range []string{"warp-drive", "sat-cube", "explicit-parallel"} {
		if _, err := ParseEngines(tok); err == nil || !strings.Contains(err.Error(), tok) {
			t.Fatalf("engine %q: %v, want an error naming it", tok, err)
		}
	}
	if _, err := ParseEngines(""); err == nil {
		t.Fatal("empty list accepted")
	}
}
