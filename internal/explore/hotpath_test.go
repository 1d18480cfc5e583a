package explore

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
)

// randomScenario builds a random honest instance: 2-3 agents, 1-2
// items, random utility/release/topology — the generator behind the
// key-equivalence and collision suites.
func randomScenario(rng *rand.Rand) ([]*mca.Agent, *graph.Graph) {
	nAgents := 2 + rng.Intn(2)
	items := 1 + rng.Intn(2)
	utils := []mca.Utility{mca.SubmodularResidual{}, mca.NonSubmodularSynergy{}, mca.FlatUtility{}}
	pol := mca.Policy{
		Target:        1 + rng.Intn(items),
		Utility:       utils[rng.Intn(len(utils))],
		ReleaseOutbid: rng.Intn(2) == 0,
		Rebid:         mca.RebidOnChange,
	}
	agents := make([]*mca.Agent, nAgents)
	for i := range agents {
		base := make([]int64, items)
		for j := range base {
			base[j] = int64(rng.Intn(15) + 1)
		}
		agents[i] = mca.MustNewAgent(mca.Config{ID: mca.AgentID(i), Items: items, Base: base, Policy: pol})
	}
	var g *graph.Graph
	switch rng.Intn(3) {
	case 0:
		g = graph.Complete(nAgents)
	case 1:
		g = graph.Line(nAgents)
	default:
		g = graph.Ring(nAgents)
	}
	return agents, g
}

// TestIncrementalKeysMatchSerializer pins the incremental canonical
// hasher to the reference serializer over a 200-scenario fuzz corpus:
// with the crosscheck armed on EVERY key computation, each explored
// state is (a) recomputed with cold digest caches — catching any stale
// per-agent or per-message cache — and (b) checked to extend a
// bijection between incremental and serializer keys, i.e. the two key
// functions induce the same partition of explored states. Any
// divergence panics inside the explorer.
func TestIncrementalKeysMatchSerializer(t *testing.T) {
	// Not parallel: crosscheckInterval is a package global read by every
	// concurrently running Check/CheckParallel.
	old := crosscheckInterval
	crosscheckInterval = 1
	defer func() { crosscheckInterval = old }()

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		agents, g := randomScenario(rng)
		opts := Options{MaxStates: 1500}
		if i%4 == 3 {
			opts.DuplicateDeliveries = true
		}
		var v Verdict
		if i%2 == 0 {
			v = Check(agents, g, opts)
		} else {
			v = CheckParallel(agents, g, opts, 1+i%3)
		}
		// The measurement behind the one-word ranker, as a pin: no state
		// of the corpus has timestamps 64 apart.
		if v.Store.Keys == 0 || v.Store.WideKeys != 0 {
			t.Fatalf("scenario %d: keys=%d wide=%d, want some and 0", i, v.Store.Keys, v.Store.WideKeys)
		}
	}
}

// TestKeyCollisionBehavior forces massive 128-bit key collisions via
// the test-only override and pins the documented engine behavior:
// states that share a key are merged — the first explored
// representative stands for all of them — so exploration still
// terminates, the verdict stays deterministic (same states, same
// verdict, across runs and worker counts), and the merged state count
// never exceeds the collision-free one.
func TestKeyCollisionBehavior(t *testing.T) {
	// Not parallel: the override hook is package-global.
	mk := func() []*mca.Agent {
		return agentsWithBases([][]int64{{10, 15}, {15, 10}}, honestPolicy(2, mca.SubmodularResidual{}, true))
	}
	baseline := Check(mk(), graph.Complete(2), Options{})
	if !baseline.OK {
		t.Fatalf("baseline must verify: %+v", baseline.Violation)
	}

	// Collapse the key space to 64 buckets: nearly every state collides.
	testKeyOverride = func(k [2]uint64) [2]uint64 {
		return [2]uint64{k[0] % 64, 0}
	}
	defer func() { testKeyOverride = nil }()

	first := Check(mk(), graph.Complete(2), Options{})
	second := Check(mk(), graph.Complete(2), Options{})
	if first.States != second.States || first.OK != second.OK || first.Violation != second.Violation {
		t.Fatalf("collision behavior not deterministic: %+v vs %+v", first, second)
	}
	if first.States > baseline.States {
		t.Fatalf("colliding keys must merge states, never split: %d > %d", first.States, baseline.States)
	}
	if first.States == 0 || !first.Exhausted {
		t.Fatalf("collision run must still terminate exhaustively: %+v", first)
	}

	// The sharded frontier under the same collisions: deterministic in
	// the worker count.
	var ref Verdict
	for i, w := range []int{1, 2, 3} {
		v := CheckParallel(mk(), graph.Complete(2), Options{}, w)
		if i == 0 {
			ref = v
			continue
		}
		if v.States != ref.States || v.OK != ref.OK || v.Violation != ref.Violation {
			t.Fatalf("workers=%d diverged under collisions: %+v vs %+v", w, v, ref)
		}
	}
}

// TestVerdictCapped pins the budget/cancel disambiguation: a MaxStates
// stop sets Capped, a cancellation does not, and both clear Exhausted.
func TestVerdictCapped(t *testing.T) {
	t.Parallel()
	mk := func() []*mca.Agent {
		return agentsWithBases([][]int64{{10, 15}, {15, 10}}, honestPolicy(2, mca.SubmodularResidual{}, true))
	}
	capped := Check(mk(), graph.Complete(2), Options{MaxStates: 2})
	if !capped.Capped || capped.Exhausted || capped.OK {
		t.Fatalf("budget stop must set Capped and clear Exhausted: %+v", capped)
	}
	cancelled := Check(mk(), graph.Complete(2), Options{Cancel: func() bool { return true }})
	if cancelled.Capped || cancelled.Exhausted || cancelled.OK {
		t.Fatalf("cancellation must not set Capped: %+v", cancelled)
	}

	pcapped := CheckParallel(mk(), graph.Complete(2), Options{MaxStates: 2}, 2)
	if !pcapped.Capped || pcapped.Exhausted || pcapped.OK {
		t.Fatalf("parallel budget stop must set Capped: %+v", pcapped)
	}
	if pcapped.States < 2 {
		t.Fatalf("States must report the true explored count: %+v", pcapped)
	}
	pcancel := CheckParallel(mk(), graph.Complete(2), Options{Cancel: func() bool { return true }}, 2)
	if pcancel.Capped || pcancel.Exhausted || pcancel.OK {
		t.Fatalf("parallel cancellation must not set Capped: %+v", pcancel)
	}
}

// TestStoreStatsPopulated asserts the seen-set exposes its occupancy
// and probe health on the verdict for both engines.
func TestStoreStatsPopulated(t *testing.T) {
	t.Parallel()
	mk := func() []*mca.Agent {
		return agentsWithBases([][]int64{{10, 15}, {15, 10}}, honestPolicy(2, mca.SubmodularResidual{}, true))
	}
	v := Check(mk(), graph.Complete(2), Options{})
	if v.Store.Entries != v.States {
		t.Fatalf("serial store entries = %d, want States = %d", v.Store.Entries, v.States)
	}
	if v.Store.Slots == 0 || v.Store.Lookups == 0 || v.Store.Probes == 0 || v.Store.Keys == 0 {
		t.Fatalf("serial store stats incomplete: %+v", v.Store)
	}
	p := CheckParallel(mk(), graph.Complete(2), Options{}, 3)
	if p.Store.Entries == 0 || p.Store.Slots == 0 || p.Store.Lookups == 0 || p.Store.Keys == 0 {
		t.Fatalf("parallel store stats incomplete: %+v", p.Store)
	}
}
