package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"
)

// ring3Agents is the tracked deep instance of the repository benchmark
// (bench/gen.go's ring3): 100,110 states on a 3-ring.
func ring3Agents() []*mca.Agent {
	return agentsWithBases([][]int64{{48, 32}, {32, 48}, {16, 32}}, honestPolicy(2, mca.FlatUtility{}, false))
}

// walkStates visits up to limit distinct reachable states of the system
// in depth-first order, by the explorers' own transition function. It
// is a plain clone-per-branch walk: slow, and independent of both
// explorers' bookkeeping.
func walkStates(agents []*mca.Agent, g *graph.Graph, dup bool, limit int, visit func([]*mca.Agent, *netsim.Network)) {
	net := initialNetwork(agents, g)
	type state struct {
		agents []mca.AgentState
		net    *netsim.Network
	}
	var ks keyScratch
	seen := map[[2]uint64]bool{ks.referenceKey(agents, net): true}
	stack := []state{{saveStates(agents), net}}
	nmodes := 1
	if dup {
		nmodes = 2
	}
	for visited := 0; len(stack) > 0 && visited < limit; visited++ {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, a := range agents {
			a.RestoreState(st.agents[i])
		}
		visit(agents, st.net)
		for _, e := range st.net.PendingInto(nil) {
			for mode := 0; mode < nmodes; mode++ {
				for i, a := range agents {
					a.RestoreState(st.agents[i])
				}
				next := st.net.Clone()
				applyDelivery(agents, next, e, mode == 0)
				if k := ks.referenceKey(agents, next); !seen[k] {
					seen[k] = true
					stack = append(stack, state{saveStates(agents), next})
				}
			}
		}
	}
}

// initialNetwork makes the explorers' initial transition: every agent
// bids and broadcasts, on channels of the default depth.
func initialNetwork(agents []*mca.Agent, g *graph.Graph) *netsim.Network {
	net := netsim.New(g)
	net.LimitQueueDepth(2)
	for _, a := range agents {
		if a.BidPhase() {
			net.BroadcastAgent(a)
		}
	}
	return net
}

// relabelled rebuilds a global state with every timestamp passed
// through f, through the public surface only: saved agent states are
// edited and restored into clones, and relabelled copies of the queued
// messages are sent into a fresh network. A zero in an information-time
// vector means "absent" and stays zero; every other slot is a time,
// zero included.
func relabelled(agents []*mca.Agent, net *netsim.Network, f func(int) int) ([]*mca.Agent, *netsim.Network) {
	info := func(times []int) []int {
		out := make([]int, len(times))
		for i, t := range times {
			if t != 0 {
				out[i] = f(t)
			}
		}
		return out
	}
	view := func(v []mca.BidInfo) []mca.BidInfo {
		out := append([]mca.BidInfo(nil), v...)
		for j := range out {
			out[j].Time = f(out[j].Time)
		}
		return out
	}
	out := cloneAgents(agents)
	for _, a := range out {
		s := a.SaveState()
		s.View, s.Block = view(s.View), view(s.Block)
		s.Clock = f(s.Clock)
		s.InfoTime = info(s.InfoTime)
		a.RestoreState(s)
	}
	fresh := netsim.New(net.Graph())
	net.ForEachQueued(func(_ netsim.Edge, m mca.Message) {
		fresh.Send(mca.Message{Sender: m.Sender, Receiver: m.Receiver, View: view(m.View), InfoTimes: info(m.InfoTimes)})
	})
	return out, fresh
}

// TestKeyIsOnePerOrderClass pins the quotient the canonical key takes:
// a state and its images under order-preserving relabellings of time
// share one key, whichever ranker served it — a shift keeps the
// timestamps within one word, a stretch by 100 spreads them past 63 and
// onto the sorted universe — and states the reference serializer tells
// apart keep different keys.
func TestKeyIsOnePerOrderClass(t *testing.T) {
	t.Parallel()
	for name, dup := range map[string]bool{"ring3": false, "ring3-duplicates": true} {
		var ks keyScratch
		refOf := map[[2]uint64][2]uint64{}
		keyOf := map[[2]uint64][2]uint64{}
		states := 0
		walkStates(ring3Agents(), graph.Ring(3), dup, 2500, func(agents []*mca.Agent, net *netsim.Network) {
			states++
			k, ref := ks.key(agents, net), ks.referenceKey(agents, net)
			if prev, ok := refOf[k]; ok && prev != ref {
				t.Fatalf("%s: key %x serves reference keys %x and %x", name, k, prev, ref)
			}
			if prev, ok := keyOf[ref]; ok && prev != k {
				t.Fatalf("%s: reference key %x has keys %x and %x", name, ref, prev, k)
			}
			refOf[k], keyOf[ref] = ref, k

			wideBefore := ks.wideKeys
			sa, sn := relabelled(agents, net, func(x int) int { return x + 1000 })
			if got := ks.key(sa, sn); got != k {
				t.Fatalf("%s: state %d: key %x, shifted by 1000 %x", name, states, k, got)
			}
			if ks.wideKeys != wideBefore {
				t.Fatalf("%s: state %d: a shift pushed the key onto the sorted ranker", name, states)
			}
			wa, wn := relabelled(agents, net, func(x int) int { return x * 100 })
			if got := ks.key(wa, wn); got != k {
				t.Fatalf("%s: state %d: key %x, stretched by 100 %x", name, states, k, got)
			}
			if got := ks.referenceKey(wa, wn); got != ref {
				t.Fatalf("%s: state %d: reference key %x, stretched by 100 %x", name, states, ref, got)
			}
		})
		if states < 2000 {
			t.Fatalf("%s: walked %d states, want at least 2000", name, states)
		}
		if len(refOf) < 2000 {
			t.Fatalf("%s: %d distinct keys over %d distinct states", name, len(refOf), states)
		}
		if ks.wideKeys == 0 {
			t.Fatalf("%s: no stretched state took the sorted ranker", name)
		}
	}
}

// TestWarmKeyDoesNotAllocate: once its buffers have grown, a key
// computation allocates nothing.
func TestWarmKeyDoesNotAllocate(t *testing.T) {
	agents := ring3Agents()
	net := initialNetwork(agents, graph.Ring(3))
	var ks keyScratch
	ks.key(agents, net)
	if n := testing.AllocsPerRun(100, func() { ks.key(agents, net) }); n != 0 {
		t.Fatalf("warm key allocates %v times per call", n)
	}
}

// TestKeyCountsArePinned turns two measurements into pins. The serial
// DFS computes one key per state it enters, so the count on ring-3 is a
// property of the search order and must not move (368,183 at PR 23);
// and no state of ring-3 or star-4 has timestamps 64 apart, so none
// leaves the one-word ranker.
func TestKeyCountsArePinned(t *testing.T) {
	t.Parallel()
	v := Check(ring3Agents(), graph.Ring(3), Options{MaxStates: 2000000})
	if !v.OK || v.States != 100110 {
		t.Fatalf("ring-3: OK=%v states=%d, want 100110", v.OK, v.States)
	}
	if v.Store.Keys != 368183 || v.Store.WideKeys != 0 {
		t.Fatalf("ring-3: keys=%d wide=%d, want 368183 and 0", v.Store.Keys, v.Store.WideKeys)
	}
	for _, workers := range []int{0, 2} {
		var s Verdict
		if workers == 0 {
			s = Check(star4Agents(), graph.Star(4), Options{MaxStates: 2000000})
		} else {
			s = CheckParallel(star4Agents(), graph.Star(4), Options{MaxStates: 2000000}, workers)
		}
		if !s.OK || s.States != 35899 {
			t.Fatalf("star-4 workers=%d: OK=%v states=%d, want 35899", workers, s.OK, s.States)
		}
		if s.Store.Keys == 0 || s.Store.WideKeys != 0 {
			t.Fatalf("star-4 workers=%d: keys=%d wide=%d, want some and 0", workers, s.Store.Keys, s.Store.WideKeys)
		}
	}
}

// recordingSeen is a seen-set that also lists every key added to it.
type recordingSeen struct {
	seenSet
	keys [][2]uint64
}

func (r *recordingSeen) add(k [2]uint64) {
	r.keys = append(r.keys, k)
	r.seenSet.add(k)
}

// TestKeyFunctionMatchesRunStateMagic ties key values to the run-state
// formats. A run state stores canonical keys, so a checkpoint is only
// resumable by a binary whose key function is the one that wrote it.
// The pins are ring-3's initial-state key and a digest of the sorted
// keys of its 100,110 states, under the magics they belong to — the
// DFS cut's and the frontier's: a change to the key function must bump
// both magics and re-pin both values, and a bumped magic must come with
// pins it was checked against. MCARS4 is the DFS format's first magic,
// over the key function MCARS3 was pinned to.
func TestKeyFunctionMatchesRunStateMagic(t *testing.T) {
	// Not parallel: testSeenWrap is a package global.
	const (
		magic         = "MCARS4\n"
		frontierMagic = "MCARS3\n"
		initial       = "[c2a5816f0ccd702a 7caa31c2c6d3a0e7]"
		visited       = "93cb2370fad8d942901072dcb0a0b896"
	)
	agents := ring3Agents()
	var ks keyScratch
	gotInitial := fmt.Sprintf("%x", ks.key(agents, initialNetwork(agents, graph.Ring(3))))

	var rec *recordingSeen
	testSeenWrap = func(s seenSet) seenSet {
		rec = &recordingSeen{seenSet: s}
		return rec
	}
	v := Check(ring3Agents(), graph.Ring(3), Options{MaxStates: 2000000})
	testSeenWrap = nil
	if !v.OK || v.States != 100110 {
		t.Fatalf("ring-3: OK=%v states=%d, want 100110", v.OK, v.States)
	}
	keys := rec.keys
	slices.SortFunc(keys, func(a, b [2]uint64) int {
		if keyLess(a, b) {
			return -1
		}
		if keyLess(b, a) {
			return 1
		}
		return 0
	})
	if keys = slices.Compact(keys); len(keys) != v.States {
		t.Fatalf("ring-3: %d distinct visited keys, want %d", len(keys), v.States)
	}
	h := sha256.New()
	for _, k := range keys {
		h.Write(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, k[0]), k[1]))
	}
	gotVisited := fmt.Sprintf("%x", h.Sum(nil)[:16])

	if gotInitial != initial || gotVisited != visited {
		t.Errorf("the canonical key function changed: ring-3's initial key is %s and its visited keys digest to %s, pinned %s and %s under %q; "+
			"bump dfsStateMagic and runStateMagic so that checkpoints of the old key function are refused, then re-pin both under them", gotInitial, gotVisited, initial, visited, magic)
	} else if dfsStateMagic != magic || runStateMagic != frontierMagic {
		t.Errorf("the run-state magics are %q and %q but the key pins are %q's and %q's: a bumped magic needs the key values of its key function re-pinned", dfsStateMagic, runStateMagic, magic, frontierMagic)
	}
}

// TestClassifyQuiescentStates covers the three outcomes of a state with
// nothing in flight, on three agents: disagreement, agreement with two
// bundles holding one item, and consensus.
func TestClassifyQuiescentStates(t *testing.T) {
	t.Parallel()
	net := netsim.New(graph.New(3))
	agents := agentsWithBases([][]int64{{10, 4}, {6, 8}, {10, 2}}, honestPolicy(2, mca.FlatUtility{}, false))
	for _, a := range agents {
		a.BidPhase() // no edges: nobody hears of anybody's bid
	}
	if kind, _, quiescent := classify(agents, net, Options{}, 0, 0); kind != ViolationDisagreement || !quiescent {
		t.Fatalf("isolated bidders: %v quiescent=%v, want disagreement", kind, quiescent)
	}

	// Every view agrees that agent 0 won item 0 and agent 1 item 1.
	agreed := []mca.BidInfo{{Bid: 10, Winner: 0, Time: 1}, {Bid: 8, Winner: 1, Time: 1}}
	hold := func(bundles ...[]mca.ItemID) {
		for i, a := range agents {
			s := a.SaveState()
			s.View, s.Bundle, s.Digest = agreed, bundles[i], [2]uint64{}
			a.RestoreState(s)
		}
	}
	hold([]mca.ItemID{0}, []mca.ItemID{1}, []mca.ItemID{0})
	if kind, _, _ := classify(agents, net, Options{}, 0, 0); kind != ViolationConflict {
		t.Fatalf("agents 0 and 2 both hold item 0: %v, want conflict", kind)
	}
	hold([]mca.ItemID{0}, []mca.ItemID{1}, nil)
	if kind, _, quiescent := classify(agents, net, Options{}, 0, 0); kind != ViolationNone || !quiescent {
		t.Fatalf("disjoint bundles: %v quiescent=%v, want none", kind, quiescent)
	}
}
