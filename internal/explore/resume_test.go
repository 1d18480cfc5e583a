package explore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"
)

// line3Agents is the resume-test workhorse: 503 states, depth 12,
// property holds — big enough to cap at interesting points, small
// enough to explore uninterrupted in every subtest.
func line3Agents() []*mca.Agent {
	return agentsWithBases([][]int64{{10, 0}, {0, 20}, {5, 5}}, honestPolicy(2, mca.FlatUtility{}, false))
}

// oscAgents oscillates (violation at depth 11, 18 states uncapped).
func oscAgents() []*mca.Agent {
	return agentsWithBases([][]int64{{10, 15}, {15, 10}}, honestPolicy(2, mca.NonSubmodularSynergy{}, true))
}

func verdictSignature(v Verdict) string {
	tr := ""
	if v.Trace != nil {
		tr = v.Trace.String()
	}
	return tr
}

// requireSameVerdict asserts every verdict field that the determinism
// contract covers (wall-clock-free fields) is identical.
func requireSameVerdict(t *testing.T, got, want Verdict, label string) {
	t.Helper()
	if got.OK != want.OK || got.Violation != want.Violation {
		t.Fatalf("%s: verdict OK=%v/%v, want OK=%v/%v", label, got.OK, got.Violation, want.OK, want.Violation)
	}
	if got.States != want.States {
		t.Fatalf("%s: states=%d, want %d", label, got.States, want.States)
	}
	if got.MaxDepth != want.MaxDepth {
		t.Fatalf("%s: depth=%d, want %d", label, got.MaxDepth, want.MaxDepth)
	}
	if got.Exhausted != want.Exhausted || got.Capped != want.Capped {
		t.Fatalf("%s: exhausted=%v capped=%v, want %v/%v", label, got.Exhausted, got.Capped, want.Exhausted, want.Capped)
	}
	if gs, ws := verdictSignature(got), verdictSignature(want); gs != ws {
		t.Fatalf("%s: trace diverged:\n%s\nvs\n%s", label, gs, ws)
	}
}

// cappedState runs the scenario to its MaxStates cap and returns the
// captured run state, round-tripped through the binary codec so every
// test also exercises encode/decode.
func cappedState(t *testing.T, mk func() []*mca.Agent, g *graph.Graph, opts Options, workers int) (Verdict, *RunState) {
	t.Helper()
	v, rs, err := CheckParallelFrom(mk(), g, opts, workers, nil, true)
	if err != nil {
		t.Fatalf("capped run: %v", err)
	}
	if !v.Capped {
		t.Fatalf("run with MaxStates=%d did not cap: %+v", opts.MaxStates, v)
	}
	if rs == nil {
		t.Fatal("capped run returned no run state")
	}
	enc := EncodeRunState(rs)
	dec, err := DecodeRunState(enc)
	if err != nil {
		t.Fatalf("decode round trip: %v", err)
	}
	if !bytes.Equal(EncodeRunState(dec), enc) {
		t.Fatal("run state codec is not a fixed point")
	}
	return v, dec
}

// Resuming a capped run must yield the verdict of the uninterrupted
// run — same states, depth, trace — at any (capping, resuming) worker
// count combination, including counts that differ from the original.
func TestResumeEquivalentToUninterrupted(t *testing.T) {
	t.Parallel()
	g := graph.Line(3)
	full := CheckParallel(line3Agents(), g, Options{}, 2)
	if !full.OK || full.States != 503 {
		t.Fatalf("unexpected reference verdict: %+v", full)
	}
	for _, cap := range []int{50, 200, 400} {
		for _, pair := range [][2]int{{1, 1}, {2, 2}, {1, 8}, {8, 1}, {2, 8}} {
			capW, resW := pair[0], pair[1]
			_, rs := cappedState(t, line3Agents, g, Options{MaxStates: cap}, capW)
			v, next, err := CheckParallelFrom(line3Agents(), g, Options{}, resW, rs, true)
			if err != nil {
				t.Fatalf("cap=%d %d->%d workers: resume: %v", cap, capW, resW, err)
			}
			if next != nil {
				t.Fatalf("cap=%d: completed resume still returned a run state", cap)
			}
			requireSameVerdict(t, v, full, "resume")
		}
	}
}

// A violation found after resume must be the violation the
// uninterrupted run reports, witness trace included.
func TestResumeFindsOscillation(t *testing.T) {
	t.Parallel()
	g := graph.Complete(2)
	full := CheckParallel(oscAgents(), g, Options{}, 2)
	if full.Violation != ViolationOscillation {
		t.Fatalf("reference run: %+v", full)
	}
	_, rs := cappedState(t, oscAgents, g, Options{MaxStates: 8}, 2)
	for _, w := range []int{1, 2, 4} {
		v, _, err := CheckParallelFrom(oscAgents(), g, Options{}, w, rs, true)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		requireSameVerdict(t, v, full, "resumed oscillation")
	}
}

// Chained resumes — cap, resume into a higher cap, cap again, resume
// to completion — must land on the uninterrupted verdict.
func TestResumeChain(t *testing.T) {
	t.Parallel()
	g := graph.Line(3)
	full := CheckParallel(line3Agents(), g, Options{}, 2)
	_, rs := cappedState(t, line3Agents, g, Options{MaxStates: 60}, 2)
	v2, rs2, err := CheckParallelFrom(line3Agents(), g, Options{MaxStates: 250}, 4, rs, true)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Capped || rs2 == nil {
		t.Fatalf("middle leg should cap again: %+v", v2)
	}
	if v2.States <= 60 {
		t.Fatalf("middle leg made no progress: states=%d", v2.States)
	}
	v3, rs3, err := CheckParallelFrom(line3Agents(), g, Options{}, 1, rs2, true)
	if err != nil {
		t.Fatal(err)
	}
	if rs3 != nil {
		t.Fatal("final leg still capped")
	}
	requireSameVerdict(t, v3, full, "final leg")
}

// Resuming without raising the budget re-caps immediately with the
// same verdict — an honest "no progress possible", not an error or a
// silently different answer.
func TestResumeSameBudgetRecaps(t *testing.T) {
	t.Parallel()
	g := graph.Line(3)
	v1, rs := cappedState(t, line3Agents, g, Options{MaxStates: 100}, 2)
	v2, rs2, err := CheckParallelFrom(line3Agents(), g, Options{MaxStates: 100}, 2, rs, true)
	if err != nil {
		t.Fatal(err)
	}
	if rs2 == nil {
		t.Fatal("re-capped run returned no run state")
	}
	requireSameVerdict(t, v2, v1, "same-budget resume")
}

// Cancelling mid-resume reports inconclusive (not capped, not a bogus
// conclusive verdict), and the original run state stays valid: a
// second resume from the same snapshot still completes correctly.
func TestResumeCancelMidway(t *testing.T) {
	t.Parallel()
	g := graph.Line(3)
	full := CheckParallel(line3Agents(), g, Options{}, 2)
	_, rs := cappedState(t, line3Agents, g, Options{MaxStates: 60}, 2)

	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int32
	opts := Options{Cancel: func() bool {
		if n.Add(1) > 3 {
			cancel()
		}
		return ctx.Err() != nil
	}}
	v, next, err := CheckParallelFrom(line3Agents(), g, opts, 2, rs, true)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Violation != ViolationNone || v.Exhausted {
		t.Fatalf("cancelled resume must be inconclusive: %+v", v)
	}
	if v.Capped || next != nil {
		t.Fatalf("cancellation is not a budget cap: capped=%v next=%v", v.Capped, next != nil)
	}

	// The snapshot is immutable input: resume it again, uncancelled.
	v2, _, err := CheckParallelFrom(line3Agents(), g, Options{}, 4, rs, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSameVerdict(t, v2, full, "re-resume after cancel")
}

// Resume must compose with CheckParallel's plain entry point: a capped
// CheckParallel verdict carries no run state (capture off), so the
// capture flag is what opts into the cost.
func TestCaptureFlagGatesRunState(t *testing.T) {
	t.Parallel()
	g := graph.Line(3)
	v, rs, err := CheckParallelFrom(line3Agents(), g, Options{MaxStates: 100}, 2, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Capped {
		t.Fatalf("expected capped verdict: %+v", v)
	}
	if rs != nil {
		t.Fatal("capture=false must not build a run state")
	}
}

func TestDecodeRunStateRejectsCorruption(t *testing.T) {
	t.Parallel()
	_, rs := cappedState(t, line3Agents, graph.Line(3), Options{MaxStates: 100}, 2)
	enc := EncodeRunState(rs)

	if _, err := DecodeRunState(nil); err == nil {
		t.Fatal("nil document decoded")
	}
	if _, err := DecodeRunState([]byte("XXARS1\nrest")); err == nil {
		t.Fatal("bad magic decoded")
	}
	// A document from before a change of the canonical key function
	// holds keys of another key space; intact otherwise, it is refused.
	for _, magic := range []string{"MCARS1\n", "MCARS2\n"} {
		old := append([]byte(magic), enc[len(runStateMagic):]...)
		if _, err := DecodeRunState(old); !errors.Is(err, ErrCorruptRunState) {
			t.Fatalf("%q document: err = %v, want ErrCorruptRunState", magic, err)
		}
	}
	if _, err := DecodeRunState(enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated document decoded")
	}
	if _, err := DecodeRunState(append(append([]byte{}, enc...), 0x01)); err == nil {
		t.Fatal("trailing garbage decoded")
	}
}

// overflowingRunState is a well-framed run state whose one frontier item
// declares a packed state of MaxInt64-10 bytes: offset plus length
// wraps on it, which once sliced past the buffer and panicked.
func overflowingRunState() []byte {
	buf := []byte(runStateMagic)
	for _, v := range []uint64{1, 1, 0, 1, 1} { // next level, states, max depth, nodes, seen
		buf = binary.AppendUvarint(buf, v)
	}
	buf = append(buf, make([]byte, 16)...) // the node's key
	buf = append(buf, 0, 0, 0, 0, 0, 0)    // parent+1, from, to, consume, depth, changes
	buf = binary.AppendUvarint(buf, 1)     // one frontier item, on node 0,
	buf = binary.AppendUvarint(buf, 0)
	buf = append(buf, make([]byte, 8)...) // with a route fingerprint
	buf = binary.AppendUvarint(buf, math.MaxInt64-10)
	return append(buf, "state"...)
}

func TestDecodeRunStateOverflowingLength(t *testing.T) {
	if _, err := DecodeRunState(overflowingRunState()); !errors.Is(err, ErrCorruptRunState) {
		t.Fatalf("err = %v, want ErrCorruptRunState", err)
	}
}

// TestResumeChecksRunStateAgainstScenario: a run state can be well
// formed and still not be a run of the scenario it is resumed with — a
// frontier item that does not decode into its agents, or decodes to a
// state other than its node's, or a delivery over an edge the graph
// lacks. Resume refuses each with ErrCorruptRunState. The first two
// rows once panicked inside the agents' state decoder.
func TestResumeChecksRunStateAgainstScenario(t *testing.T) {
	t.Parallel()
	g := graph.Line(3)
	_, rs := cappedState(t, line3Agents, g, Options{MaxStates: 20}, 2)
	keyOf := func(i int) [2]uint64 { return rs.Nodes[rs.Frontier[i].Node].Key }
	other := len(rs.Frontier) - 1 // an item holding another state than item 0
	if keyOf(other) == keyOf(0) {
		t.Fatalf("fixture frontier holds one state only")
	}
	last := len(rs.Nodes) - 1
	for name, mut := range map[string]func(r *RunState){
		"truncated-state": func(r *RunState) { r.Frontier[0].State = r.Frontier[0].State[:1] },
		"0xff-state":      func(r *RunState) { r.Frontier[0].State = bytes.Repeat([]byte{0xff}, len(r.Frontier[0].State)) },
		"trailing-byte":   func(r *RunState) { r.Frontier[0].State = append(r.Frontier[0].State, 0) },
		"another-state":   func(r *RunState) { r.Frontier[0].State = r.Frontier[other].State },
		"agent-outside":   func(r *RunState) { r.Nodes[last].From = 3 },
		"not-an-edge":     func(r *RunState) { r.Nodes[last].From, r.Nodes[last].To = 0, 2 },
		"log-not-an-edge": func(r *RunState) { r.Edges[0].EdgeTo = -1 },
	} {
		dec, err := DecodeRunState(EncodeRunState(rs))
		if err != nil {
			t.Fatal(err)
		}
		mut(dec)
		if _, _, err := CheckParallelFrom(line3Agents(), g, Options{}, 2, dec, false); !errors.Is(err, ErrCorruptRunState) {
			t.Fatalf("%s: err = %v, want ErrCorruptRunState", name, err)
		}
	}
	// A sound run state of another scenario is foreign to this one.
	_, star := cappedState(t, star4Agents, graph.Star(4), Options{MaxStates: 1}, 2)
	if _, _, err := CheckParallelFrom(line3Agents(), g, Options{}, 2, star, false); !errors.Is(err, ErrCorruptRunState) {
		t.Fatalf("star-4 run state resumed on line-3: err = %v, want ErrCorruptRunState", err)
	}
}

// TestReplayRefusesAnEmptyQueue: a counterexample is replayed along the
// tree path to its state; a resumed tree can name a delivery whose
// queue is empty at that point, which no run walks. The replay reports
// the run state corrupt instead of panicking in netsim.
func TestReplayRefusesAnEmptyQueue(t *testing.T) {
	t.Parallel()
	agents := line3Agents()
	net := netsim.New(graph.Line(3))
	for _, a := range agents {
		if a.BidPhase() {
			net.BroadcastAgent(a)
		}
	}
	once := stepRec{edge: netsim.Edge{From: 0, To: 1}, consume: true}
	if _, err := replayTrace(cloneAgents(agents), saveStates(agents), net, []stepRec{once}, "x"); err != nil {
		t.Fatalf("the one queued 0->1 message does not replay: %v", err)
	}
	if _, err := replayTrace(cloneAgents(agents), saveStates(agents), net, []stepRec{once, once}, "x"); !errors.Is(err, ErrCorruptRunState) {
		t.Fatalf("second 0->1 delivery: err = %v, want ErrCorruptRunState", err)
	}
}

// FuzzDecodeRunState: a run state is untrusted bytes (a checkpoint file
// whose checksum anyone can recompute). Decoding one is a typed error or
// a value whose encoding decodes and re-encodes byte-identically —
// never a panic — and allocates in proportion to the input. Whatever
// decodes is then resumed on line-3 under a small budget: that is a
// typed error or a verdict, never a panic.
func FuzzDecodeRunState(f *testing.F) {
	// Star-4 capped after its first level: every section of the format
	// (tree, routed frontier with packed states, edge log) in 2 KB.
	v, rs, err := CheckParallelFrom(star4Agents(), graph.Star(4), Options{MaxStates: 1}, 2, nil, true)
	if err != nil || !v.Capped {
		f.Fatalf("capped star-4 seed: %+v, %v", v, err)
	}
	f.Add(EncodeRunState(rs))
	// Line-3 capped a few levels in, which the resume leg continues.
	v, rs, err = CheckParallelFrom(line3Agents(), graph.Line(3), Options{MaxStates: 20}, 2, nil, true)
	if err != nil || !v.Capped {
		f.Fatalf("capped line-3 seed: %+v, %v", v, err)
	}
	f.Add(EncodeRunState(rs))
	f.Add(overflowingRunState())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rs, err := DecodeRunState(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptRunState) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		first := EncodeRunState(rs)
		again, err := DecodeRunState(first)
		if err != nil {
			t.Fatalf("re-encoded run state does not decode: %v", err)
		}
		if second := EncodeRunState(again); !bytes.Equal(first, second) {
			t.Fatalf("round trip moved the bytes:\n%x\n%x", first, second)
		}
		if _, _, err := CheckParallelFrom(line3Agents(), graph.Line(3), Options{MaxStates: 64}, 1, rs, false); err != nil && !errors.Is(err, ErrCorruptRunState) {
			t.Fatalf("resume: untyped error %v", err)
		}
	})
}

func TestRunStateValidation(t *testing.T) {
	t.Parallel()
	_, rs := cappedState(t, line3Agents, graph.Line(3), Options{MaxStates: 100}, 2)

	reject := func(mut func(*RunState), why string) {
		t.Helper()
		dec, err := DecodeRunState(EncodeRunState(rs))
		if err != nil {
			t.Fatal(err)
		}
		mut(dec)
		if _, err := DecodeRunState(EncodeRunState(dec)); err == nil {
			t.Fatalf("validation accepted %s", why)
		}
	}
	reject(func(r *RunState) { r.NextLevel = 0 }, "zero next level")
	reject(func(r *RunState) { r.States = 0 }, "zero state count")
	reject(func(r *RunState) { r.SeenCount = len(r.Nodes) + 1 }, "seen count past node count")
	reject(func(r *RunState) { r.Nodes[len(r.Nodes)-1].Parent = int32(len(r.Nodes)) }, "out-of-range parent")
	reject(func(r *RunState) {
		for i := range r.Nodes {
			if p := r.Nodes[i].Parent; p >= 0 {
				r.Nodes[i].Depth = r.Nodes[p].Depth // not strictly increasing
				break
			}
		}
	}, "non-increasing depth")
}

// star4Agents is the flat star-4 instance (35,899 states uncapped):
// wide enough that three shards route thousands of cross-shard
// successors per level.
func star4Agents() []*mca.Agent {
	return agentsWithBases([][]int64{{12, 8}, {8, 12}, {4, 8}, {6, 6}}, honestPolicy(2, mca.FlatUtility{}, false))
}

// At a fixed worker count a capped run is a pure function of its
// inputs: the run state's bytes and the store statistics repeat
// exactly. Producer-side pruning reads peers' sealed tables only during
// the expand phase, when nobody writes them, so which duplicates get
// routed — and with it the captured frontier and every probe count —
// does not depend on scheduling. One shard runs the same two phases
// inline and is held to the same assertion.
func TestFrontierRunStateDeterministic(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{3, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			run := func(label string, opts Options) ([]byte, StoreStats) {
				t.Helper()
				opts.MaxStates = 15000
				v, rs, err := CheckParallelFrom(star4Agents(), graph.Star(4), opts, workers, nil, true)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !v.Capped || rs == nil {
					t.Fatalf("%s: expected a capped run with state: %+v", label, v)
				}
				return EncodeRunState(rs), v.Store
			}
			same := func(label string, enc, refEnc []byte, store, refStore StoreStats) {
				t.Helper()
				if !bytes.Equal(enc, refEnc) {
					t.Fatalf("%s: run state bytes differ from the reference run (%d vs %d bytes)", label, len(enc), len(refEnc))
				}
				if store != refStore {
					t.Fatalf("%s: store stats %+v, reference run had %+v", label, store, refStore)
				}
			}
			refEnc, refStore := run("run 0", Options{})
			for i := 1; i < 20; i++ {
				label := fmt.Sprintf("run %d", i)
				enc, store := run(label, Options{})
				same(label, enc, refEnc, store, refStore)
			}
			// A spill store that is wired in but never crosses its
			// threshold changes nothing.
			enc, store := run("idle spill", Options{SpillDir: t.TempDir()})
			same("idle spill", enc, refEnc, store, refStore)
			// One that engages routes more (peers cannot prune against
			// what was spilled), and repeats just as exactly.
			spilling := Options{SpillDir: t.TempDir(), SpillStates: 1 << 10}
			encA, storeA := run("spilling", spilling)
			if storeA.Spilled == 0 {
				t.Fatal("spilling: spill never engaged")
			}
			encB, storeB := run("spilling again", spilling)
			same("spilling again", encB, encA, storeB, storeA)
		})
	}
}
