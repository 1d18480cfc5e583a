package engine_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/netsim"
	"repro/internal/relalg"
	"repro/internal/sat"
)

// fixtures shared between the engine adapters and the pre-refactor
// entry points: the Result 1 policy matrix on the Fig. 2 valuation
// pattern, over two topologies.
type dynFixture struct {
	name    string
	util    mca.Utility
	release bool
	graph   *graph.Graph
	agents  int
	items   int
	// opts bounds each check; the large ring fixture caps MaxStates so
	// the equivalence pin runs on a truncated (identically inconclusive)
	// search instead of a multi-second exploration.
	opts explore.Options
}

func dynFixtures() []dynFixture {
	var out []dynFixture
	for _, u := range []mca.Utility{mca.SubmodularResidual{}, mca.NonSubmodularSynergy{}} {
		for _, rel := range []bool{false, true} {
			out = append(out, dynFixture{
				name: u.Name(), util: u, release: rel,
				graph: graph.Complete(2), agents: 2, items: 2,
			})
		}
	}
	out = append(out, dynFixture{
		name: "ring3", util: mca.SubmodularResidual{}, release: true,
		graph: graph.Ring(3), agents: 3, items: 2,
		opts: explore.Options{MaxStates: 20000},
	})
	return out
}

func (f dynFixture) specs() []mca.Config {
	specs := make([]mca.Config, f.agents)
	for i := 0; i < f.agents; i++ {
		base := make([]int64, f.items)
		for j := range base {
			base[j] = int64(10 + 5*((i+j)%f.items))
		}
		specs[i] = mca.Config{
			ID: mca.AgentID(i), Items: f.items, Base: base,
			Policy: mca.Policy{
				Target: f.items, Utility: f.util,
				ReleaseOutbid: f.release, Rebid: mca.RebidOnChange,
			},
		}
	}
	return specs
}

func (f dynFixture) legacyAgents(t *testing.T) []*mca.Agent {
	t.Helper()
	specs := f.specs()
	out := make([]*mca.Agent, len(specs))
	for i, cfg := range specs {
		a, err := mca.NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = a
	}
	return out
}

// TestExplicitEngineMatchesLegacyCheck pins the serial adapter's
// verdict to explore.Check on every shared fixture.
func TestExplicitEngineMatchesLegacyCheck(t *testing.T) {
	for _, f := range dynFixtures() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			want := explore.Check(f.legacyAgents(t), f.graph, f.opts)
			got := engine.Explicit{}.Verify(context.Background(), engine.Scenario{
				Name: f.name, AgentSpecs: f.specs(), Graph: f.graph, Explore: f.opts,
			})
			if got.Status == engine.StatusError {
				t.Fatalf("engine error: %v", got.Err)
			}
			if (got.Status == engine.StatusHolds) != want.OK {
				t.Fatalf("verdict mismatch: engine %v, legacy OK=%v", got.Status, want.OK)
			}
			if got.Violation != want.Violation {
				t.Fatalf("violation mismatch: engine %v, legacy %v", got.Violation, want.Violation)
			}
			if got.Stats.States != want.States || got.Stats.MaxDepth != want.MaxDepth || got.Stats.Exhausted != want.Exhausted {
				t.Fatalf("stats mismatch: engine %+v, legacy states=%d depth=%d exhausted=%v",
					got.Stats, want.States, want.MaxDepth, want.Exhausted)
			}
		})
	}
}

// TestExplicitWorkersRunTheDFS: Workers selects nothing, so
// Explicit{Workers: n} returns Explicit{}'s result document, byte for
// byte (wall time aside), on every shared fixture — the capped ring
// included — and through Auto.
func TestExplicitWorkersRunTheDFS(t *testing.T) {
	encode := func(t *testing.T, res engine.Result) string {
		t.Helper()
		res.Stats.Wall = 0
		data, err := engine.EncodeResult(&res)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, f := range dynFixtures() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			s := engine.Scenario{Name: f.name, AgentSpecs: f.specs(), Graph: f.graph, Explore: f.opts}
			want := encode(t, engine.Explicit{}.Verify(context.Background(), s))
			for _, eng := range []engine.Engine{
				engine.Explicit{Workers: 1}, engine.Explicit{Workers: 2}, engine.Explicit{Workers: -1},
				engine.Explicit{Workers: engine.MaxWorkers}, engine.Auto{Workers: 2},
			} {
				if got := encode(t, eng.Verify(context.Background(), s)); got != want {
					t.Fatalf("%#v: %s\nExplicit{}: %s", eng, got, want)
				}
			}
		})
	}
}

// TestParallelExplicitEngineMatchesLegacyCheckParallel keeps the
// sharded frontier's differential: explore.CheckParallel, which only
// tests and bench/ still reach, agrees with the explicit engine at the
// worker counts that once selected it — now the serial DFS. The two
// searches visit states in different orders, so a run stopped by a
// violation or the cap counts different states: the engine's count is
// pinned to explore.Check's, and to the frontier's where the frontier
// enumerated the whole reachable set.
func TestParallelExplicitEngineMatchesLegacyCheckParallel(t *testing.T) {
	for _, f := range dynFixtures() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			serial := explore.Check(f.legacyAgents(t), f.graph, f.opts)
			for _, workers := range []int{2, 4} {
				want := explore.CheckParallel(f.legacyAgents(t), f.graph, f.opts, workers)
				got := engine.Explicit{Workers: workers}.Verify(context.Background(), engine.Scenario{
					Name: f.name, AgentSpecs: f.specs(), Graph: f.graph, Explore: f.opts,
				})
				if (got.Status == engine.StatusHolds) != want.OK || got.Violation != want.Violation {
					t.Fatalf("workers=%d: engine %v/%v, legacy OK=%v/%v",
						workers, got.Status, got.Violation, want.OK, want.Violation)
				}
				if got.Stats.States != serial.States {
					t.Fatalf("workers=%d: states %d, explore.Check %d", workers, got.Stats.States, serial.States)
				}
				if want.OK && want.Exhausted && got.Stats.States != want.States {
					t.Fatalf("workers=%d: states %d, exhausted frontier %d", workers, got.Stats.States, want.States)
				}
			}
		})
	}
}

// satFixtures builds both encodings at a small scope.
func satFixtures(t *testing.T) []*mcamodel.Encoding {
	t.Helper()
	sc := mcamodel.Scope{PNodes: 2, VNodes: 2, Values: 3, States: 2, Msgs: 1, IntBitwidth: 3}
	n, err := mcamodel.BuildNaive(sc)
	if err != nil {
		t.Fatal(err)
	}
	o, err := mcamodel.BuildOptimized(sc)
	if err != nil {
		t.Fatal(err)
	}
	return []*mcamodel.Encoding{n, o}
}

// TestSATEngineMatchesLegacyCheck pins the SAT adapter to the
// pre-refactor relalg.Check path on both encodings, and the portfolio
// to the serial answer.
func TestSATEngineMatchesLegacyCheck(t *testing.T) {
	for _, e := range satFixtures(t) {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			want := relalg.Check(e.Bounds, e.Background, e.Consensus, sat.Options{})
			got := engine.SAT{}.Verify(context.Background(), engine.Scenario{Name: e.Name, Model: e})
			if got.SATStatus != want.Status {
				t.Fatalf("serial: engine %v, legacy %v", got.SATStatus, want.Status)
			}
			if got.Stats.Clauses != want.Stats.Clauses || got.Stats.PrimaryVars != want.Stats.PrimaryVars {
				t.Fatalf("translation stats diverged: %+v vs %+v", got.Stats, want.Stats)
			}
			for _, eng := range []engine.Engine{engine.SAT{Workers: 3}, engine.SAT{Workers: -1}} {
				pr := eng.Verify(context.Background(), engine.Scenario{Name: e.Name, Model: e})
				if pr.SATStatus != want.Status {
					t.Fatalf("%s: engine %v, legacy %v", eng.Name(), pr.SATStatus, want.Status)
				}
			}
		})
	}
}

// TestWorkersAreBounded: Explicit and SAT refuse more than MaxWorkers
// workers at Applicable, naming the bound, before a shard or portfolio
// member exists; Auto meets the same check through the engine it picks.
// -1 (one per CPU) and MaxWorkers itself still run.
func TestWorkersAreBounded(t *testing.T) {
	f := dynFixtures()[0]
	dyn := engine.Scenario{Name: f.name, AgentSpecs: f.specs(), Graph: f.graph}
	model := engine.Scenario{Name: "model", Model: satFixtures(t)[1]}
	bound := fmt.Sprintf("at most %d", engine.MaxWorkers)
	over := engine.MaxWorkers + 1
	for _, tc := range []struct {
		eng engine.Engine
		s   engine.Scenario
	}{
		{engine.Explicit{Workers: over}, dyn},
		{engine.SAT{Workers: over}, model},
		{engine.Auto{Workers: over}, dyn},
		{engine.Auto{Workers: over}, model},
	} {
		if err := engine.Applicable(tc.eng, &tc.s); err == nil || !strings.Contains(err.Error(), bound) {
			t.Errorf("Applicable(%s, %s) = %v, want an error naming %q", tc.eng.Name(), tc.s.Name, err, bound)
		}
		if res := tc.eng.Verify(context.Background(), tc.s); res.Status != engine.StatusError {
			t.Errorf("%s on %s: %v, want an error result", tc.eng.Name(), tc.s.Name, res.Status)
		}
	}
	for _, w := range []int{-1, engine.MaxWorkers} {
		for _, res := range []engine.Result{
			engine.Explicit{Workers: w}.Verify(context.Background(), dyn),
			engine.SAT{Workers: w}.Verify(context.Background(), model),
		} {
			if res.Status == engine.StatusError {
				t.Errorf("%s: %v", res.Engine, res.Err)
			}
		}
	}
}

// TestSimulationEngineConvergesOnReliableNetwork checks the sampled
// engine agrees with the exhaustive one on a fault-free verified
// scenario.
func TestSimulationEngineConverges(t *testing.T) {
	f := dynFixtures()[0] // submodular, keep: verified by the explorer
	s := engine.Scenario{Name: f.name, AgentSpecs: f.specs(), Graph: f.graph}
	res := engine.Simulation{Runs: 8}.Verify(context.Background(), s)
	if res.Status != engine.StatusHolds {
		t.Fatalf("reliable simulation did not hold: %v (%+v)", res.Status, res.Stats)
	}
	if res.Stats.Runs != 8 || res.Stats.Converged != 8 {
		t.Fatalf("run accounting wrong: %+v", res.Stats)
	}
}

// TestSimulationEngineIsDeterministic re-runs a faulty scenario and
// expects identical stats.
func TestSimulationEngineIsDeterministic(t *testing.T) {
	f := dynFixtures()[0]
	s := engine.Scenario{
		Name: "faulty", AgentSpecs: f.specs(), Graph: f.graph,
		Faults: netsim.Faults{Drop: 0.4, Delay: 1},
	}
	eng := engine.Simulation{Runs: 12, Seed: 99}
	first := eng.Verify(context.Background(), s)
	for i := 0; i < 3; i++ {
		again := eng.Verify(context.Background(), s)
		if again.Status != first.Status || again.Stats.Converged != first.Stats.Converged ||
			again.Stats.Dropped != first.Stats.Dropped || again.Stats.Deliveries != first.Stats.Deliveries {
			t.Fatalf("nondeterministic simulation: %+v vs %+v", again.Stats, first.Stats)
		}
	}
}

// TestExplicitEngineRejectsProbabilisticFaults: exhaustive checking has
// no semantics for coin-flip message loss.
func TestExplicitEngineRejectsProbabilisticFaults(t *testing.T) {
	f := dynFixtures()[0]
	res := engine.Explicit{}.Verify(context.Background(), engine.Scenario{
		Name: "lossy", AgentSpecs: f.specs(), Graph: f.graph,
		Faults: netsim.Faults{Drop: 0.5},
	})
	if res.Status != engine.StatusError || res.Err == nil {
		t.Fatalf("probabilistic faults accepted: %v", res.Status)
	}
}

// TestExplicitEnginePartitionFault: a permanent partition is checked
// exactly on the masked graph, where agreement genuinely fails.
func TestExplicitEnginePartitionFault(t *testing.T) {
	f := dynFixture{
		name: "partition", util: mca.SubmodularResidual{}, release: true,
		graph: graph.Complete(2), agents: 2, items: 2,
	}
	res := engine.Explicit{}.Verify(context.Background(), engine.Scenario{
		Name: f.name, AgentSpecs: f.specs(), Graph: f.graph,
		Faults: netsim.Faults{Partitions: [][]int{{0}, {1}}},
	})
	if res.Status != engine.StatusViolated {
		t.Fatalf("partitioned scenario verified: %v", res.Status)
	}
	if res.Violation != explore.ViolationDisagreement {
		t.Fatalf("expected disagreement, got %v", res.Violation)
	}
}

// TestEngineContextCancellation: an already-cancelled context makes
// every engine report inconclusive (or at least never a false Holds).
func TestEngineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := dynFixture{
		name: "big", util: mca.FlatUtility{}, release: false,
		graph: graph.Ring(3), agents: 3, items: 2,
	}
	s := engine.Scenario{Name: f.name, AgentSpecs: f.specs(), Graph: f.graph}
	for _, eng := range []engine.Engine{engine.Explicit{}, engine.Explicit{Workers: 2}, engine.Simulation{Runs: 4}} {
		res := eng.Verify(ctx, s)
		if res.Status != engine.StatusInconclusive {
			t.Fatalf("%s: cancelled run reported %v", eng.Name(), res.Status)
		}
		if res.Err == nil {
			t.Fatalf("%s: cancelled run has no error", eng.Name())
		}
	}
	for _, e := range satFixtures(t) {
		res := engine.SAT{}.Verify(ctx, engine.Scenario{Name: e.Name, Model: e})
		if res.Status != engine.StatusInconclusive {
			t.Fatalf("sat %s: cancelled run reported %v", e.Name, res.Status)
		}
	}
}

// TestEngineDeadline: a deadline bounds a large exploration and reports
// inconclusive rather than hanging or claiming a verdict.
func TestEngineDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	f := dynFixture{
		name: "deadline", util: mca.FlatUtility{}, release: false,
		graph: graph.Complete(4), agents: 4, items: 3,
	}
	s := engine.Scenario{
		Name: f.name, AgentSpecs: f.specs(), Graph: f.graph,
		Explore: explore.Options{MaxStates: 50_000_000},
	}
	res := engine.Explicit{}.Verify(ctx, s)
	if res.Status == engine.StatusHolds {
		t.Fatalf("deadline run claimed a verdict on a truncated search: %+v", res)
	}
}

// TestAutoEngineSelection checks the per-scenario dispatch rules.
func TestAutoEngineSelection(t *testing.T) {
	f := dynFixtures()[0]
	dyn := engine.Scenario{AgentSpecs: f.specs(), Graph: f.graph}
	lossy := dyn
	lossy.Faults = netsim.Faults{Drop: 0.1}
	part := dyn
	part.Faults = netsim.Faults{Partitions: [][]int{{0}, {1}}}
	cases := []struct {
		s    engine.Scenario
		want string
	}{
		{dyn, "explicit"},
		{lossy, "simulation"},
		{part, "explicit"},
	}
	for _, c := range cases {
		if got := (engine.Auto{}).EngineFor(c.s).Name(); got != c.want {
			t.Fatalf("auto picked %s, want %s", got, c.want)
		}
	}
	sat := engine.Scenario{Model: satFixtures(t)[0]}
	if got := (engine.Auto{}).EngineFor(sat).Name(); got != "sat" {
		t.Fatalf("auto picked %s for relational scenario", got)
	}
}

// TestExplicitEngineHonoursScenarioCancel: a caller-supplied
// Explore.Cancel hook must survive the context plumbing (the engine
// combines the two rather than overwriting).
func TestExplicitEngineHonoursScenarioCancel(t *testing.T) {
	f := dynFixture{
		name: "caller-cancel", util: mca.FlatUtility{}, release: false,
		graph: graph.Complete(4), agents: 4, items: 3,
	}
	s := engine.Scenario{
		Name: f.name, AgentSpecs: f.specs(), Graph: f.graph,
		Explore: explore.Options{
			MaxStates: 50_000_000,
			Cancel:    func() bool { return true },
		},
	}
	for _, eng := range []engine.Engine{engine.Explicit{}, engine.Explicit{Workers: 2}} {
		res := eng.Verify(context.Background(), s)
		if res.Status != engine.StatusInconclusive {
			t.Fatalf("%s: caller cancel ignored: %v (states=%d)", eng.Name(), res.Status, res.Stats.States)
		}
	}
}
