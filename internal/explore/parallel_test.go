package explore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/mca"
)

var workerCounts = []int{1, 2, 3, 4}

// checkAllWorkerCounts runs CheckParallel across worker counts on fresh
// agent sets built by mk, asserting that verdict, violation kind, state
// count, and counterexample trace are all identical — the determinism
// contract of the sharded frontier.
func checkAllWorkerCounts(t *testing.T, mk func() []*mca.Agent, g *graph.Graph, opts Options) Verdict {
	t.Helper()
	var ref Verdict
	var refTrace string
	for i, w := range workerCounts {
		v := CheckParallel(mk(), g, opts, w)
		tr := ""
		if v.Trace != nil {
			tr = v.Trace.String()
		}
		if i == 0 {
			ref, refTrace = v, tr
			continue
		}
		if v.OK != ref.OK || v.Violation != ref.Violation {
			t.Fatalf("workers=%d: verdict OK=%v/%v diverged from workers=%d: OK=%v/%v",
				w, v.OK, v.Violation, workerCounts[0], ref.OK, ref.Violation)
		}
		if v.States != ref.States {
			t.Fatalf("workers=%d explored %d states, workers=%d explored %d",
				w, v.States, workerCounts[0], ref.States)
		}
		if v.MaxDepth != ref.MaxDepth {
			t.Fatalf("workers=%d reached depth %d, workers=%d reached %d",
				w, v.MaxDepth, workerCounts[0], ref.MaxDepth)
		}
		if tr != refTrace {
			t.Fatalf("workers=%d produced a different counterexample:\n%s\nvs workers=%d:\n%s",
				w, tr, workerCounts[0], refTrace)
		}
	}
	return ref
}

func TestParallelEmptyAgents(t *testing.T) {
	t.Parallel()
	v := CheckParallel(nil, graph.New(0), Options{}, 4)
	if !v.OK {
		t.Fatal("empty system should trivially hold")
	}
}

func TestParallelFig1MatchesSerial(t *testing.T) {
	t.Parallel()
	mk := func() []*mca.Agent {
		return agentsWithBases([][]int64{{10, 0, 30}, {20, 15, 0}}, honestPolicy(2, mca.FlatUtility{}, false))
	}
	serial := Check(mk(), graph.Complete(2), Options{})
	par := checkAllWorkerCounts(t, mk, graph.Complete(2), Options{})
	if par.OK != serial.OK || par.Violation != serial.Violation {
		t.Fatalf("parallel %v/%v vs serial %v/%v", par.OK, par.Violation, serial.OK, serial.Violation)
	}
	if par.States == 0 || par.MaxDepth == 0 {
		t.Fatalf("verdict counters empty: %+v", par)
	}
	if !par.Exhausted {
		t.Fatal("small instance must be exhaustively explored")
	}
}

// The Fig. 2 instability: the parallel engine must find the same
// oscillation the serial DFS finds, with a stable witness cycle.
func TestParallelOscillationMatchesSerial(t *testing.T) {
	t.Parallel()
	mk := func() []*mca.Agent {
		return agentsWithBases([][]int64{{10, 15}, {15, 10}}, honestPolicy(2, mca.NonSubmodularSynergy{}, true))
	}
	serial := Check(mk(), graph.Complete(2), Options{})
	par := checkAllWorkerCounts(t, mk, graph.Complete(2), Options{})
	if par.OK {
		t.Fatal("non-submodular + release-outbid must fail in parallel mode too")
	}
	if serial.OK {
		t.Fatal("serial reference unexpectedly OK")
	}
	if par.Violation != ViolationOscillation {
		t.Fatalf("parallel violation = %v, want oscillation", par.Violation)
	}
	if par.Trace == nil || par.Trace.Len() == 0 {
		t.Fatal("missing parallel counterexample trace")
	}
}

func TestParallelRebidAttackMatchesSerial(t *testing.T) {
	t.Parallel()
	mk := func() []*mca.Agent {
		pol := mca.Policy{Target: 1, Utility: mca.EscalatingUtility{Cap: 1 << 20}, Rebid: mca.RebidAlways}
		return []*mca.Agent{
			mca.MustNewAgent(mca.Config{ID: 0, Items: 1, Base: []int64{10}, Policy: pol}),
			mca.MustNewAgent(mca.Config{ID: 1, Items: 1, Base: []int64{5}, Policy: pol}),
		}
	}
	serial := Check(mk(), graph.Complete(2), Options{})
	par := checkAllWorkerCounts(t, mk, graph.Complete(2), Options{})
	if par.OK || serial.OK {
		t.Fatalf("attack must fail: parallel OK=%v serial OK=%v", par.OK, serial.OK)
	}
	if par.Violation != ViolationBoundExceeded && par.Violation != ViolationOscillation {
		t.Fatalf("parallel violation = %v", par.Violation)
	}
}

func TestParallelPolicyMatrixMatchesSerial(t *testing.T) {
	t.Parallel()
	for _, u := range []mca.Utility{mca.SubmodularResidual{}, mca.NonSubmodularSynergy{}} {
		for _, rel := range []bool{false, true} {
			mk := func() []*mca.Agent {
				return agentsWithBases([][]int64{{10, 15}, {15, 10}}, honestPolicy(2, u, rel))
			}
			serial := Check(mk(), graph.Complete(2), Options{})
			par := checkAllWorkerCounts(t, mk, graph.Complete(2), Options{})
			if par.OK != serial.OK {
				t.Fatalf("%s/release=%v: parallel OK=%v, serial OK=%v", u.Name(), rel, par.OK, serial.OK)
			}
		}
	}
}

// Property: random honest two-agent instances get the same verdict from
// the serial DFS and the sharded frontier at every worker count.
func TestParallelAgreesWithSerialProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		items := 1 + rng.Intn(2)
		bases := make([][]int64, 2)
		for i := range bases {
			bases[i] = make([]int64, items)
			for j := range bases[i] {
				bases[i][j] = int64(rng.Intn(12) + 1)
			}
		}
		release := rng.Intn(2) == 0
		mk := func() []*mca.Agent {
			return agentsWithBases(bases, honestPolicy(items, mca.SubmodularResidual{}, release))
		}
		serial := Check(mk(), graph.Complete(2), Options{MaxStates: 500000})
		for _, w := range []int{1, 3} {
			par := CheckParallel(mk(), graph.Complete(2), Options{MaxStates: 500000}, w)
			if par.OK != serial.OK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelDuplicateDeliveries(t *testing.T) {
	t.Parallel()
	mkHonest := func() []*mca.Agent {
		return agentsWithBases([][]int64{{10, 0, 30}, {20, 15, 0}}, honestPolicy(2, mca.FlatUtility{}, false))
	}
	v := checkAllWorkerCounts(t, mkHonest, graph.Complete(2), Options{DuplicateDeliveries: true, MaxStates: 500000})
	if !v.OK {
		t.Fatalf("duplicates broke honest config: %v", v.Violation)
	}
	mkOsc := func() []*mca.Agent {
		return agentsWithBases([][]int64{{10, 15}, {15, 10}}, honestPolicy(2, mca.NonSubmodularSynergy{}, true))
	}
	v = checkAllWorkerCounts(t, mkOsc, graph.Complete(2), Options{DuplicateDeliveries: true})
	if v.OK {
		t.Fatal("oscillating pair verified under duplicates")
	}
}

func TestParallelMaxStatesInconclusive(t *testing.T) {
	t.Parallel()
	mk := func() []*mca.Agent {
		return agentsWithBases([][]int64{{10, 15}, {15, 10}}, honestPolicy(2, mca.SubmodularResidual{}, true))
	}
	v := checkAllWorkerCounts(t, mk, graph.Complete(2), Options{MaxStates: 2})
	if v.Exhausted {
		t.Fatal("2-state budget cannot exhaust this space")
	}
	if v.OK {
		t.Fatal("inconclusive verdicts must not claim OK")
	}
}

func TestParallelThreeAgentLine(t *testing.T) {
	t.Parallel()
	mk := func() []*mca.Agent {
		return agentsWithBases([][]int64{{9, 3}, {5, 5}, {3, 9}}, honestPolicy(1, mca.FlatUtility{}, false))
	}
	serial := Check(mk(), graph.Line(3), Options{})
	par := checkAllWorkerCounts(t, mk, graph.Line(3), Options{})
	if par.OK != serial.OK {
		t.Fatalf("parallel OK=%v, serial OK=%v", par.OK, serial.OK)
	}
}

func TestParallelExplicitBoundRespected(t *testing.T) {
	t.Parallel()
	mk := func() []*mca.Agent {
		return agentsWithBases([][]int64{{10, 0, 30}, {20, 15, 0}}, honestPolicy(2, mca.FlatUtility{}, false))
	}
	v := checkAllWorkerCounts(t, mk, graph.Complete(2), Options{Bound: 1, HardLimitFactor: 1})
	if v.OK {
		t.Fatal("bound=1 should not be enough for Fig.1")
	}
	if v.Violation != ViolationBoundExceeded {
		t.Fatalf("violation = %v, want bound-exceeded", v.Violation)
	}
}

// Counterexample traces must replay to the exact violating state: the
// last two steps carry the violating snapshot, and every delivery label
// names a real edge.
func TestParallelTraceReplaysConsistently(t *testing.T) {
	t.Parallel()
	mk := func() []*mca.Agent {
		return agentsWithBases([][]int64{{10, 15}, {15, 10}}, honestPolicy(2, mca.NonSubmodularSynergy{}, true))
	}
	v := CheckParallel(mk(), graph.Complete(2), Options{}, 3)
	if v.Trace == nil {
		t.Fatal("no trace")
	}
	s := v.Trace.String()
	for _, want := range []string{"initial bids", "deliver", "VIOLATION"} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace missing %q:\n%s", want, s)
		}
	}
}

// TestEachRaisesShardPanicOnCaller: a panic on a shard goroutine — where
// no caller's recover can reach it, so it would end the process (on the
// parent it ended this test binary) — is raised again on the goroutine
// that called each, after every shard has returned.
func TestEachRaisesShardPanicOnCaller(t *testing.T) {
	fr := &frontier{shards: []*shardWorker{{self: 0}, {self: 1}}}
	finished := make([]bool, len(fr.shards))
	var got any
	func() {
		defer func() { got = recover() }()
		fr.each(func(w *shardWorker) {
			defer func() { finished[w.self] = true }()
			if w.self == 1 {
				var none []int
				_ = none[w.self] // index out of range
			}
		})
	}()
	if got == nil || !strings.Contains(fmt.Sprint(got), "index out of range") {
		t.Fatalf("caller recovered %v, want the shard's index-out-of-range panic", got)
	}
	if !finished[0] || !finished[1] {
		t.Fatalf("each returned before the join finished: %v", finished)
	}
}
