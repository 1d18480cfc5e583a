package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/mca"
)

// infoVec builds a dense information-time vector with entry id set to t.
func infoVec(id mca.AgentID, t int) []int {
	v := make([]int, id+1)
	v[id] = t
	return v
}

func mkMsg(from, to mca.AgentID, bid int64) mca.Message {
	return mca.Message{
		Sender: from, Receiver: to,
		View:      []mca.BidInfo{{Bid: bid, Winner: from, Time: 1}},
		InfoTimes: infoVec(from, 1),
	}
}

func TestSendDeliverFIFO(t *testing.T) {
	n := New(graph.Complete(2))
	n.Send(mkMsg(0, 1, 5))
	n.Send(mkMsg(0, 1, 7))
	if n.InFlight() != 2 {
		t.Fatalf("in flight = %d", n.InFlight())
	}
	e := Edge{From: 0, To: 1}
	if m := n.Deliver(e); m.View[0].Bid != 5 {
		t.Fatalf("FIFO violated: got bid %d", m.View[0].Bid)
	}
	if m := n.Deliver(e); m.View[0].Bid != 7 {
		t.Fatal("second message lost")
	}
	if !n.Quiescent() {
		t.Fatal("network should be quiescent")
	}
}

func TestCoalesceKeepsLatest(t *testing.T) {
	n := New(graph.Complete(2))
	n.LimitQueueDepth(1)
	n.Send(mkMsg(0, 1, 5))
	n.Send(mkMsg(0, 1, 7))
	if n.InFlight() != 1 {
		t.Fatalf("coalesced in flight = %d, want 1", n.InFlight())
	}
	if m := n.Deliver(Edge{From: 0, To: 1}); m.View[0].Bid != 7 {
		t.Fatalf("coalesce must keep the latest message, got %d", m.View[0].Bid)
	}
}

func TestSendNoEdgePanics(t *testing.T) {
	n := New(graph.Line(3)) // no edge 0-2
	n.LimitQueueDepth(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing edge")
		}
	}()
	n.Send(mkMsg(0, 2, 1))
}

func TestDeliverEmptyPanics(t *testing.T) {
	n := New(graph.Complete(2))
	n.LimitQueueDepth(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty deliver")
		}
	}()
	n.Deliver(Edge{From: 0, To: 1})
}

func TestPendingSortedDeterministic(t *testing.T) {
	n := New(graph.Complete(3))
	n.LimitQueueDepth(1)
	n.Send(mkMsg(2, 0, 1))
	n.Send(mkMsg(0, 1, 1))
	n.Send(mkMsg(1, 2, 1))
	p := n.PendingInto(nil)
	if len(p) != 3 || p[0].From != 0 || p[1].From != 1 || p[2].From != 2 {
		t.Fatalf("pending = %v", p)
	}
}

func TestPeek(t *testing.T) {
	n := New(graph.Complete(2))
	n.LimitQueueDepth(1)
	if _, ok := n.Peek(Edge{From: 0, To: 1}); ok {
		t.Fatal("peek on empty edge")
	}
	n.Send(mkMsg(0, 1, 9))
	m, ok := n.Peek(Edge{From: 0, To: 1})
	if !ok || m.View[0].Bid != 9 {
		t.Fatal("peek broken")
	}
	if n.InFlight() != 1 {
		t.Fatal("peek must not consume")
	}
}

func TestCloneIndependent(t *testing.T) {
	n := New(graph.Complete(2))
	n.LimitQueueDepth(1)
	n.Send(mkMsg(0, 1, 9))
	c := n.Clone()
	c.Deliver(Edge{From: 0, To: 1})
	if n.InFlight() != 1 {
		t.Fatal("delivering on clone drained the original")
	}
}

func TestBroadcast(t *testing.T) {
	g := graph.Star(4)
	n := New(g)
	n.LimitQueueDepth(1)
	a := mca.MustNewAgent(mca.Config{ID: 0, Items: 1, Base: []int64{5},
		Policy: mca.Policy{Target: 1, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}})
	a.BidPhase()
	n.BroadcastAgent(a)
	if n.InFlight() != 3 {
		t.Fatalf("hub broadcast should hit 3 spokes, got %d", n.InFlight())
	}
}

func asyncAgents(n, items int, seed int64) []*mca.Agent {
	rng := rand.New(rand.NewSource(seed))
	pol := mca.Policy{Target: items, Utility: mca.SubmodularResidual{}, Rebid: mca.RebidOnChange, ReleaseOutbid: true}
	agents := make([]*mca.Agent, n)
	for i := range agents {
		base := make([]int64, items)
		for j := range base {
			base[j] = int64(rng.Intn(30) + 1)
		}
		agents[i] = mca.MustNewAgent(mca.Config{ID: mca.AgentID(i), Items: items, Base: base, Policy: pol})
	}
	return agents
}

func TestRunAsyncConverges(t *testing.T) {
	agents := asyncAgents(4, 3, 5)
	g := graph.RandomConnected(4, 0.4, 5)
	out := RunAsync(agents, g, 99, 2000)
	if !out.Converged {
		t.Fatalf("async run did not converge: %+v", out)
	}
}

// Property: randomized asynchronous delivery converges conflict-free for
// honest sub-modular agents across seeds and topologies.
func TestRunAsyncConvergesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		items := 1 + rng.Intn(3)
		agents := asyncAgents(n, items, seed)
		g := graph.RandomConnected(n, 0.3, seed)
		out := RunAsync(agents, g, seed^0xABCD, 5000)
		if !out.Converged {
			return false
		}
		holder := make(map[mca.ItemID]mca.AgentID)
		for _, a := range agents {
			for _, j := range a.Bundle() {
				if prev, taken := holder[j]; taken && prev != a.ID() {
					return false
				}
				holder[j] = a.ID()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAsyncBudgetStopsOscillation(t *testing.T) {
	// The Fig. 2 pair under async delivery: never converges, budget
	// exhausts.
	pol := mca.Policy{Target: 2, Utility: mca.NonSubmodularSynergy{}, Rebid: mca.RebidOnChange, ReleaseOutbid: true}
	a1 := mca.MustNewAgent(mca.Config{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol})
	a2 := mca.MustNewAgent(mca.Config{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol})
	out := RunAsync([]*mca.Agent{a1, a2}, graph.Complete(2), 1, 400)
	if out.Converged {
		t.Fatalf("oscillating pair converged: %+v", out)
	}
	if out.Deliveries != 400 {
		t.Fatalf("expected full budget burn, got %d", out.Deliveries)
	}
}

// queued returns the in-order messages currently queued on the edge.
func queued(n *Network, e Edge) []mca.Message {
	var out []mca.Message
	n.ForEachQueued(func(at Edge, m mca.Message) {
		if at == e {
			out = append(out, m)
		}
	})
	return out
}

func TestLimitQueueDepthCoalescesTail(t *testing.T) {
	n := New(graph.Complete(2))
	n.LimitQueueDepth(2)
	n.Send(mkMsg(0, 1, 1))
	n.Send(mkMsg(0, 1, 2))
	n.Send(mkMsg(0, 1, 3)) // replaces the tail (2), keeps the head (1)
	e := Edge{From: 0, To: 1}
	q := queued(n, e)
	if len(q) != 2 {
		t.Fatalf("queue depth = %d, want 2", len(q))
	}
	if q[0].View[0].Bid != 1 || q[1].View[0].Bid != 3 {
		t.Fatalf("queue = [%d %d], want [1 3]", q[0].View[0].Bid, q[1].View[0].Bid)
	}
}

func TestLimitQueueDepthUnboundedWhenZero(t *testing.T) {
	n := New(graph.Complete(2))
	for i := int64(0); i < 5; i++ {
		n.Send(mkMsg(0, 1, i))
	}
	if n.InFlight() != 5 {
		t.Fatalf("unbounded queue held %d", n.InFlight())
	}
}

func TestCloneKeepsDepthLimit(t *testing.T) {
	n := New(graph.Complete(2))
	n.LimitQueueDepth(1)
	c := n.Clone()
	c.Send(mkMsg(0, 1, 1))
	c.Send(mkMsg(0, 1, 2))
	if c.InFlight() != 1 {
		t.Fatalf("clone lost the depth limit: %d in flight", c.InFlight())
	}
}

func TestGraphAndCoalesceAccessors(t *testing.T) {
	g := graph.Complete(2)
	n := New(g)
	n.LimitQueueDepth(1)
	n.Send(mkMsg(0, 1, 1))
	n.Send(mkMsg(0, 1, 2))
	if n.Graph() != g || n.InFlight() != 1 {
		t.Fatal("accessors broken")
	}
}
