package explore

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"
)

// cappedDFS runs the serial check to its MaxStates cap and returns the
// cut, round-tripped through the binary codec (which must be a fixed
// point), so every resume test also exercises encode and decode.
func cappedDFS(t testing.TB, agents []*mca.Agent, g *graph.Graph, opts Options) *DFSState {
	t.Helper()
	v, st, err := CheckFrom(agents, g, opts, nil, true)
	if err != nil {
		t.Fatalf("capped run: %v", err)
	}
	if !v.Capped || st == nil {
		t.Fatalf("run with MaxStates=%d did not cap with a cut: %+v", opts.MaxStates, v)
	}
	enc := EncodeDFSState(st)
	dec, err := DecodeDFSState(enc)
	if err != nil {
		t.Fatalf("decode round trip: %v", err)
	}
	if !bytes.Equal(EncodeDFSState(dec), enc) {
		t.Fatal("DFS state codec is not a fixed point")
	}
	return dec
}

// resumeDFS continues a cut under opts and fails the test on an error.
func resumeDFS(t *testing.T, agents []*mca.Agent, g *graph.Graph, opts Options, st *DFSState) (Verdict, *DFSState) {
	t.Helper()
	v, next, err := CheckFrom(agents, g, opts, st, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return v, next
}

// Resuming a capped DFS at any cut yields the uninterrupted verdict:
// states, depth, flags and trace, and for a reference that caps, the
// same cut. The cuts are spread over each scenario — line-3 that holds,
// two agents that oscillate after every cut, and the first 3,000 states
// of line-3 with duplicate deliveries, where cuts fall inside mode-1
// (message left in flight) branches.
func TestDFSResumeEquivalentToUninterrupted(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		agents func() []*mca.Agent
		g      *graph.Graph
		opts   Options
		step   int
	}{
		{"line-3", line3Agents, graph.Line(3), Options{}, 7},
		{"oscillation", oscAgents, graph.Complete(2), Options{}, 1},
		{"line-3 duplicates", line3Agents, graph.Line(3), Options{DuplicateDeliveries: true, MaxStates: 3000}, 37},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			full, fullCut, err := CheckFrom(tc.agents(), tc.g, tc.opts, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			cuts, dupCuts := 0, 0
			for budget := 1; budget < full.States; budget += tc.step {
				capped := tc.opts
				capped.MaxStates = budget
				st := cappedDFS(t, tc.agents(), tc.g, capped)
				v, next := resumeDFS(t, tc.agents(), tc.g, tc.opts, st)
				label := fmt.Sprintf("cut at %d", budget)
				requireSameVerdict(t, v, full, label)
				if (next == nil) != (fullCut == nil) || next != nil && !bytes.Equal(EncodeDFSState(next), EncodeDFSState(fullCut)) {
					t.Fatalf("%s: the resumed run's cut differs from the uninterrupted run's", label)
				}
				cuts++
				for _, s := range st.Path {
					if !s.Consume {
						dupCuts++
						break
					}
				}
			}
			if cuts < 3 {
				t.Fatalf("%d cuts below %d states, want at least 3", cuts, full.States)
			}
			if tc.opts.DuplicateDeliveries && dupCuts == 0 {
				t.Fatal("no cut fell inside a duplicate-delivery branch")
			}
		})
	}
}

// The oscillation is found after the cut, with the uninterrupted run's
// witness: the trace replays the resumed path, whose marks the replay
// re-derived.
func TestDFSResumeFindsOscillation(t *testing.T) {
	t.Parallel()
	full := Check(oscAgents(), graph.Complete(2), Options{})
	if full.Violation != ViolationOscillation || full.Trace == nil {
		t.Fatalf("reference run: %+v", full)
	}
	st := cappedDFS(t, oscAgents(), graph.Complete(2), Options{MaxStates: full.States - 1})
	v, _ := resumeDFS(t, oscAgents(), graph.Complete(2), Options{}, st)
	requireSameVerdict(t, v, full, "resumed one state short of the violation")
}

// A chain of resumes equals one uninterrupted run, and a resume that
// caps again at the same budget hands back the same cut, byte for byte.
func TestDFSResumeChain(t *testing.T) {
	t.Parallel()
	g := graph.Line(3)
	full := Check(line3Agents(), g, Options{})
	st := cappedDFS(t, line3Agents(), g, Options{MaxStates: 100})

	same, again := resumeDFS(t, line3Agents(), g, Options{MaxStates: 100}, st)
	if !same.Capped || again == nil || !bytes.Equal(EncodeDFSState(again), EncodeDFSState(st)) {
		t.Fatalf("resume at the same budget: capped=%v, cut moved", same.Capped)
	}
	mid, next := resumeDFS(t, line3Agents(), g, Options{MaxStates: 250}, st)
	if !mid.Capped || next == nil || mid.States != 250 {
		t.Fatalf("first resume: %+v", mid)
	}
	if direct := cappedDFS(t, line3Agents(), g, Options{MaxStates: 250}); !bytes.Equal(EncodeDFSState(next), EncodeDFSState(direct)) {
		t.Fatal("the cut of a resumed run differs from the cut of the same run uninterrupted")
	}
	v, last := resumeDFS(t, line3Agents(), g, Options{}, next)
	if last != nil {
		t.Fatal("a concluded resume returned a cut")
	}
	requireSameVerdict(t, v, full, "second resume")
}

// Only the exact store checkpoints; the refusal names the option.
func TestDFSCheckpointNeedsTheExactStore(t *testing.T) {
	t.Parallel()
	st := cappedDFS(t, line3Agents(), graph.Line(3), Options{MaxStates: 50})
	for _, tc := range []struct {
		opts Options
		name string
	}{
		{Options{Store: StoreBitstate}, "bitstate"},
		{Options{Store: StoreHashCompact}, "hash-compact"},
		{Options{DisableVisitedSet: true}, "DisableVisitedSet"},
	} {
		if _, _, err := CheckFrom(line3Agents(), graph.Line(3), tc.opts, nil, true); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("capture under %s: %v, want an error naming it", tc.name, err)
		}
		if _, _, err := CheckFrom(line3Agents(), graph.Line(3), tc.opts, st, false); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("resume under %s: %v, want an error naming it", tc.name, err)
		}
	}
}

// A path the check could not have taken is refused by the replay, as
// ErrCorruptRunState: a step that is not pending at its depth, a
// duplicate delivery where the scenario has none, a step through a
// state the search had already finished, and a cut from another
// scenario.
func TestDFSResumeRefusesAForeignPath(t *testing.T) {
	t.Parallel()
	g := graph.Line(3)
	st := cappedDFS(t, line3Agents(), g, Options{MaxStates: 100})
	edit := func(f func(*DFSState)) *DFSState {
		c := *st
		c.Path = append([]Step(nil), st.Path...)
		c.Visited = append([][2]uint64(nil), st.Visited...)
		f(&c)
		return &c
	}
	initial := func() [2]uint64 {
		agents := line3Agents()
		var ks keyScratch
		return ks.key(agents, initialNetwork(agents, g))
	}()
	for name, bad := range map[string]*DFSState{
		"not an edge":     edit(func(c *DFSState) { c.Path[0].Edge = netsim.Edge{From: 0, To: 2} }),
		"not pending":     edit(func(c *DFSState) { c.Path[0].Edge = netsim.Edge{From: 9, To: 9} }),
		"duplicate":       edit(func(c *DFSState) { c.Path[len(c.Path)-1].Consume = false }),
		"finished before": edit(func(c *DFSState) { c.Visited = [][2]uint64{initial}; c.States = 1 + len(c.Path) }),
	} {
		if _, _, err := CheckFrom(line3Agents(), g, Options{}, bad, false); !errors.Is(err, ErrCorruptRunState) {
			t.Errorf("%s: %v, want ErrCorruptRunState", name, err)
		}
	}
	if _, _, err := CheckFrom(oscAgents(), graph.Complete(2), Options{}, st, false); !errors.Is(err, ErrCorruptRunState) {
		t.Errorf("a line-3 cut resumed on another scenario: %v, want ErrCorruptRunState", err)
	}
}

// The decoder refuses every structural fault, and a frontier run state
// by the name of its format.
func TestDecodeDFSStateRejectsCorruption(t *testing.T) {
	t.Parallel()
	st := cappedDFS(t, line3Agents(), graph.Line(3), Options{MaxStates: 100})
	enc := EncodeDFSState(st)
	reject := func(data []byte, why string) {
		t.Helper()
		if _, err := DecodeDFSState(data); !errors.Is(err, ErrCorruptRunState) {
			t.Errorf("%s: %v, want ErrCorruptRunState", why, err)
		}
	}
	for cut := 0; cut < len(enc); cut += 5 {
		reject(enc[:cut], fmt.Sprintf("truncated to %d bytes", cut))
	}
	reject(append(bytes.Clone(enc), 0), "trailing byte")
	reject(append([]byte("MCARS9\n"), enc[len(dfsStateMagic):]...), "foreign magic")
	edited := func(f func(*DFSState)) []byte {
		c := *st
		c.Path = append([]Step(nil), st.Path...)
		c.Visited = append([][2]uint64(nil), st.Visited...)
		f(&c)
		return EncodeDFSState(&c)
	}
	reject(edited(func(c *DFSState) { c.States++ }), "a state count the keys and path do not add up to")
	reject(edited(func(c *DFSState) { c.MaxDepth = len(c.Path) - 1 }), "a depth short of the path")
	reject(edited(func(c *DFSState) { c.Visited[0], c.Visited[1] = c.Visited[1], c.Visited[0] }), "unsorted keys")
	reject(edited(func(c *DFSState) { c.Visited[1] = c.Visited[0] }), "a repeated key")
	reject(edited(func(c *DFSState) { c.States -= len(c.Path); c.Path = nil }), "an empty path")
	// The one byte a flipped mode moves is the step's consume byte.
	flag := edited(func(c *DFSState) { c.Path[0].Consume = !c.Path[0].Consume })
	for i := range flag {
		if flag[i] != enc[i] {
			flag[i] = 2
			break
		}
	}
	reject(flag, "a consume byte other than 0 or 1")

	_, frontier, err := CheckParallelFrom(line3Agents(), graph.Line(3), Options{MaxStates: 100}, 2, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDFSState(EncodeRunState(frontier)); !errors.Is(err, ErrCorruptRunState) || !strings.Contains(err.Error(), "sharded-frontier") {
		t.Errorf("frontier run state: %v, want a refusal naming the format", err)
	}
}

// FuzzDecodeDFSState: a DFS run state is untrusted bytes (a checkpoint
// whose checksum anyone can recompute). Decoding one is a typed error
// or a value whose encoding decodes and re-encodes byte-identically —
// never a panic — and allocates in proportion to the input. Whatever
// decodes is resumed on line-3 and on ring-3, 64 states past its cut:
// a typed error or a verdict, never a panic.
func FuzzDecodeDFSState(f *testing.F) {
	for _, budget := range []int{1, 20, 100, 400} {
		f.Add(EncodeDFSState(cappedDFS(f, line3Agents(), graph.Line(3), Options{MaxStates: budget})))
	}
	for _, budget := range []int{1, 50, 300} {
		f.Add(EncodeDFSState(cappedDFS(f, ring3Agents(), graph.Ring(3), Options{MaxStates: budget})))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := DecodeDFSState(data)
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
		if first := EncodeDFSState(st); !bytes.Equal(first, data) {
			t.Fatalf("decoded state re-encodes differently:\n%x\n%x", data, first)
		}
		for _, sc := range []struct {
			agents []*mca.Agent
			g      *graph.Graph
		}{{line3Agents(), graph.Line(3)}, {ring3Agents(), graph.Ring(3)}} {
			v, _, err := CheckFrom(sc.agents, sc.g, Options{MaxStates: st.States + 64}, st, true)
			if err != nil && !errors.Is(err, ErrCorruptRunState) {
				t.Fatalf("resume: untyped error %v", err)
			}
			if err == nil && v.Violation != ViolationNone && v.Trace == nil {
				t.Fatalf("resume reported %v without a witness", v.Violation)
			}
		}
	})
}
