// Paper-artifact and ablation benches: one bench per figure/result in
// the paper's evaluation, plus ablations and the fuzzing layer. Each
// bench regenerates and validates the corresponding artifact. What the
// product's layers cost is measured by the repo benchmark instead
// (go run ./bench, BENCHMARK.json; docs/PERFORMANCE.md). Run with:
//
//	go test -bench=. -benchmem .
package mcaverify_test

import (
	"context"
	"testing"

	mcaverify "repro"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/sat"
)

// ---- E1: Fig. 1 — the two-agent three-item worked example ----

func fig1Agents() []*mca.Agent {
	pol := mca.Policy{Target: 2, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	a1 := mca.MustNewAgent(mca.Config{ID: 0, Items: 3, Base: []int64{10, 0, 30}, Policy: pol})
	a2 := mca.MustNewAgent(mca.Config{ID: 1, Items: 3, Base: []int64{20, 15, 0}, Policy: pol})
	return []*mca.Agent{a1, a2}
}

// BenchmarkFig1WorkedExample runs the Fig. 1 instance to consensus and
// validates the paper's post-agreement state b=(20,15,30), a=(2,2,1).
func BenchmarkFig1WorkedExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		agents := fig1Agents()
		r, err := mca.NewSyncRunner(agents, graph.Complete(2))
		if err != nil {
			b.Fatal(err)
		}
		out := r.Run(10)
		if !out.Converged {
			b.Fatal("Fig.1 did not converge")
		}
		v := agents[0].View()
		if v[0].Bid != 20 || v[0].Winner != 1 || v[1].Bid != 15 || v[1].Winner != 1 || v[2].Bid != 30 || v[2].Winner != 0 {
			b.Fatalf("Fig.1 state mismatch: %+v", v)
		}
	}
}

// ---- E2: Fig. 2 — the oscillation counterexample ----

func fig2Agents(util mca.Utility, release bool) []*mca.Agent {
	pol := mca.Policy{Target: 2, Utility: util, Rebid: mca.RebidOnChange, ReleaseOutbid: release}
	a1 := mca.MustNewAgent(mca.Config{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol})
	a2 := mca.MustNewAgent(mca.Config{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol})
	return []*mca.Agent{a1, a2}
}

// BenchmarkFig2Oscillation finds the oscillation counterexample for the
// non-sub-modular + release-outbid policy pair by exhaustive search.
func BenchmarkFig2Oscillation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := explore.Check(fig2Agents(mca.NonSubmodularSynergy{}, true), graph.Complete(2), explore.Options{})
		if v.OK || v.Violation != explore.ViolationOscillation {
			b.Fatalf("expected oscillation, got OK=%v violation=%v", v.OK, v.Violation)
		}
	}
}

// BenchmarkFig2SubmodularControl verifies the sub-modular control
// configuration (same valuations) converges.
func BenchmarkFig2SubmodularControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := explore.Check(fig2Agents(mca.SubmodularResidual{}, true), graph.Complete(2), explore.Options{})
		if !v.OK {
			b.Fatalf("control failed: %v", v.Violation)
		}
	}
}

// ---- E3: Result 1 — the policy combination matrix ----

// BenchmarkResult1PolicyMatrix sweeps the four policy combinations and
// checks that exactly non-sub-modular + release-outbid fails.
func BenchmarkResult1PolicyMatrix(b *testing.B) {
	utilities := []mca.Utility{mca.SubmodularResidual{}, mca.NonSubmodularSynergy{}}
	for i := 0; i < b.N; i++ {
		for _, u := range utilities {
			for _, rel := range []bool{false, true} {
				v := explore.Check(fig2Agents(u, rel), graph.Complete(2), explore.Options{})
				wantFail := !u.Submodular() && rel
				if v.OK == wantFail {
					b.Fatalf("combo %s/release=%v: OK=%v want fail=%v", u.Name(), rel, v.OK, wantFail)
				}
			}
		}
	}
	b.ReportMetric(4, "combos/op")
}

// ---- E4: Result 2 — the rebidding attack ----

func attackAgents() []*mca.Agent {
	pol := mca.Policy{Target: 1, Utility: mca.EscalatingUtility{Cap: 1 << 20}, Rebid: mca.RebidAlways}
	a0 := mca.MustNewAgent(mca.Config{ID: 0, Items: 1, Base: []int64{10}, Policy: pol})
	a1 := mca.MustNewAgent(mca.Config{ID: 1, Items: 1, Base: []int64{5}, Policy: pol})
	return []*mca.Agent{a0, a1}
}

// BenchmarkResult2RebidAttack shows that removing the Remark 1 condition
// breaks the consensus assertion within the message bound.
func BenchmarkResult2RebidAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := explore.Check(attackAgents(), graph.Complete(2), explore.Options{})
		if v.OK {
			b.Fatal("attack should break consensus")
		}
	}
}

// ---- E6: the D·|J| consensus message bound ----

// BenchmarkConsensusBound runs honest sub-modular auctions across
// topologies and verifies convergence within the D·|J| round bound,
// reporting the average rounds used.
func BenchmarkConsensusBound(b *testing.B) {
	tops := []graph.Topology{graph.TopologyLine, graph.TopologyRing, graph.TopologyStar, graph.TopologyComplete}
	rounds := 0
	runs := 0
	for i := 0; i < b.N; i++ {
		for ti, tp := range tops {
			n, items := 4, 3
			g := graph.Build(tp, n, int64(ti))
			agents := make([]*mca.Agent, n)
			for ai := range agents {
				base := make([]int64, items)
				for j := range base {
					base[j] = int64(10 + (ai*7+j*3)%17)
				}
				agents[ai] = mca.MustNewAgent(mca.Config{
					ID: mca.AgentID(ai), Items: items, Base: base,
					Policy: mca.Policy{Target: items, Utility: mca.SubmodularResidual{}, ReleaseOutbid: true, Rebid: mca.RebidOnChange},
				})
			}
			r, err := mca.NewSyncRunner(agents, g)
			if err != nil {
				b.Fatal(err)
			}
			bound := mca.MessageBound(g, items)
			out := r.Run(bound + 1)
			if !out.Converged {
				b.Fatalf("%v: no consensus within D·|J|=%d rounds", tp, bound)
			}
			rounds += out.Rounds
			runs++
		}
	}
	b.ReportMetric(float64(rounds)/float64(runs), "rounds/run")
}

// ---- E7: the static model's uniqueID check ----

// BenchmarkStaticUniqueIDCheck reproduces "check uniqueID for 3" on the
// relational stack.
func BenchmarkStaticUniqueIDCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := mcamodel.Scope{PNodes: 3, VNodes: 2, Values: 3, States: 2, Msgs: 1}
		e, err := mcamodel.BuildOptimized(sc)
		if err != nil {
			b.Fatal(err)
		}
		ok, _ := mcamodel.RunSatisfiable(e, sat.Options{})
		if !ok {
			b.Fatal("static model unsatisfiable")
		}
	}
}

// ---- Ablations ----

// BenchmarkAblationResolutionFullTable vs MaxMerge: the full
// asynchronous conflict table against the naive max-merge rule on the
// same honest workload (max-merge cannot retract, so it is only run on
// non-releasing agents where both converge).
func BenchmarkAblationResolutionFullTable(b *testing.B) {
	benchResolution(b, nil)
}

func BenchmarkAblationResolutionMaxMerge(b *testing.B) {
	benchResolution(b, mca.MaxMergeResolve)
}

func benchResolution(b *testing.B, resolver mca.Resolver) {
	for i := 0; i < b.N; i++ {
		n, items := 4, 3
		g := graph.Ring(n)
		agents := make([]*mca.Agent, n)
		for ai := range agents {
			base := make([]int64, items)
			for j := range base {
				base[j] = int64(5 + (ai*5+j*2)%13)
			}
			agents[ai] = mca.MustNewAgent(mca.Config{
				ID: mca.AgentID(ai), Items: items, Base: base,
				Policy:   mca.Policy{Target: items, Utility: mca.FlatUtility{}, Rebid: mca.RebidNever},
				Resolver: resolver,
			})
		}
		r, err := mca.NewSyncRunner(agents, g)
		if err != nil {
			b.Fatal(err)
		}
		out := r.Run(40)
		if !out.Converged {
			b.Fatal("ablation workload did not converge")
		}
	}
}

// BenchmarkAblationVisitedSet explores the Fig. 1 instance with and
// without state memoization.
func BenchmarkAblationVisitedSetOn(b *testing.B) {
	benchVisited(b, false)
}

func BenchmarkAblationVisitedSetOff(b *testing.B) {
	benchVisited(b, true)
}

func benchVisited(b *testing.B, disable bool) {
	states := 0
	for i := 0; i < b.N; i++ {
		v := explore.Check(fig1Agents(), graph.Complete(2), explore.Options{DisableVisitedSet: disable})
		if !v.OK {
			b.Fatalf("Fig.1 check failed: %v", v.Violation)
		}
		states = v.States
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkAblationSATHeuristics compares VSIDS+restarts against static
// ordering on the naive model's consensus check CNF.
func BenchmarkAblationSATVSIDS(b *testing.B) {
	benchSATOptions(b, sat.Options{})
}

func BenchmarkAblationSATStaticOrder(b *testing.B) {
	benchSATOptions(b, sat.Options{DisableVSIDS: true, DisableRestarts: true, DisablePhaseSaving: true})
}

func benchSATOptions(b *testing.B, opts sat.Options) {
	sc := mcamodel.Scope{PNodes: 2, VNodes: 2, Values: 3, States: 2, Msgs: 1}
	for i := 0; i < b.N; i++ {
		e, err := mcamodel.BuildOptimized(sc)
		if err != nil {
			b.Fatal(err)
		}
		res := engine.SAT{}.Verify(context.Background(), engine.Scenario{Model: e, Solver: opts})
		if res.SATStatus == sat.StatusUnknown {
			b.Fatal("inconclusive")
		}
	}
}

// ---- Case study, fault injection ----

// BenchmarkEmbedding measures end-to-end virtual network embedding.
func BenchmarkEmbedding(b *testing.B) {
	g := mcaverify.RandomConnectedGraph(10, 0.3, 3)
	for _, e := range g.Edges() {
		g.AddWeightedEdge(e.U, e.V, 10)
	}
	phys := &mcaverify.PhysicalNetwork{Graph: g}
	for i := 0; i < g.N(); i++ {
		phys.Nodes = append(phys.Nodes, mcaverify.PhysicalNode{CPU: 200})
	}
	vnet := &mcaverify.VirtualNetwork{
		Nodes: []mcaverify.VirtualNode{{CPU: 20}, {CPU: 30}, {CPU: 25}},
		Links: []mcaverify.VirtualLink{{A: 0, B: 1, Bandwidth: 2}, {A: 1, B: 2, Bandwidth: 2}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb, err := mcaverify.NewEmbedder(phys, mcaverify.EmbedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := emb.Embed(vnet); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDuplicateDeliveryCheck measures verification under
// at-least-once channel fault injection.
func BenchmarkDuplicateDeliveryCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := explore.Check(fig1Agents(), graph.Complete(2),
			explore.Options{DuplicateDeliveries: true, MaxStates: 500000})
		if !v.OK {
			b.Fatalf("duplicates broke Fig.1: %v", v.Violation)
		}
	}
}

// ---- Fuzzing layer: generation, oracle, shrinking ----

// BenchmarkGenerate measures corpus manufacturing throughput — pure
// generation, no verification. The generator must stay cheap enough
// that corpus cost is always dominated by the engines.
func BenchmarkGenerate(b *testing.B) {
	profile := mcaverify.DefaultFuzzProfile()
	profile.ModelProb = 0 // building relational models would dominate
	const n = 100
	for i := 0; i < b.N; i++ {
		scenarios, err := mcaverify.Generate(profile, int64(i), n)
		if err != nil {
			b.Fatal(err)
		}
		if len(scenarios) != n {
			b.Fatal("short corpus")
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
}

// BenchmarkShrinkFailure measures the delta-debugging descent on the
// bloated Fig. 2 oscillation: every accepted step re-verifies through
// the serial DFS.
func BenchmarkShrinkFailure(b *testing.B) {
	fight := mca.Policy{Target: 2, Utility: mca.NonSubmodularSynergy{}, Rebid: mca.RebidOnChange, ReleaseOutbid: true}
	idle := mca.Policy{Target: 1, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	s := engine.Scenario{
		Name: "bench-shrink",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 3, Base: []int64{10, 15, 0}, Policy: fight},
			{ID: 1, Items: 3, Base: []int64{15, 10, 0}, Policy: fight},
			{ID: 2, Items: 3, Base: []int64{1, 1, 2}, Policy: idle},
		},
		Graph:   graph.Complete(3),
		Explore: explore.Options{MaxStates: 20000, BoundSlack: 8, DuplicateDeliveries: true},
	}
	for i := 0; i < b.N; i++ {
		shrunk, _, err := mcaverify.ShrinkFailure(context.Background(), s, mcaverify.ExplicitEngine{}, mcaverify.ShrinkOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(shrunk.AgentSpecs) != 2 {
			b.Fatalf("shrink kept %d agents", len(shrunk.AgentSpecs))
		}
	}
}

// BenchmarkDifferentialOracle measures oracle throughput on a small
// fixed corpus: scenarios/s across the default panel, the number that
// scales a fuzzing campaign.
func BenchmarkDifferentialOracle(b *testing.B) {
	profile := mcaverify.DefaultFuzzProfile()
	profile.Agents = mcaverify.FuzzIntRange{Min: 2, Max: 3}
	profile.Items = mcaverify.FuzzIntRange{Min: 2, Max: 2}
	profile.MaxStates = mcaverify.FuzzIntRange{Min: 2000, Max: 8000}
	profile.ModelProb = 0 // SAT legs measured by the E5 benches
	const n = 16
	scenarios, err := mcaverify.Generate(profile, 42, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sum := mcaverify.DiffSweep(context.Background(), scenarios, mcaverify.DiffOptions{Workers: 4})
		if sum.Disagreements != 0 {
			b.Fatalf("bench corpus disagrees: %+v", sum)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
}

// BenchmarkCoverageFuzz measures the coverage-guided loop end to end —
// generation, mutation, oracle verification, and bucket folding — the
// round throughput of a coverage campaign, with the discovered bucket
// count reported alongside.
func BenchmarkCoverageFuzz(b *testing.B) {
	profile := mcaverify.DefaultFuzzProfile()
	profile.Agents = mcaverify.FuzzIntRange{Min: 2, Max: 3}
	profile.Items = mcaverify.FuzzIntRange{Min: 2, Max: 2}
	profile.MaxStates = mcaverify.FuzzIntRange{Min: 2000, Max: 8000}
	profile.ModelProb = 0 // SAT legs measured by the E5 benches
	const rounds, perRound = 3, 8
	buckets := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mcaverify.FuzzCoverage(context.Background(), mcaverify.FuzzCoverageOptions{
			Profile: profile, Seed: 42, Rounds: rounds, PerRound: perRound,
			Diff: mcaverify.DiffOptions{Workers: 4},
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Disagreements) != 0 {
			b.Fatalf("bench corpus disagrees: %d", len(res.Disagreements))
		}
		buckets = len(res.Buckets)
	}
	b.ReportMetric(float64(rounds*perRound)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
	b.ReportMetric(float64(buckets), "buckets")
}
