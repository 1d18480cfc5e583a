package netsim

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
)

func faultAgents(t *testing.T, n, items int) []*mca.Agent {
	t.Helper()
	out := make([]*mca.Agent, n)
	for i := 0; i < n; i++ {
		base := make([]int64, items)
		for j := range base {
			base[j] = int64(10 + 5*((i+j)%items))
		}
		a, err := mca.NewAgent(mca.Config{
			ID: mca.AgentID(i), Items: items, Base: base,
			Policy: mca.Policy{Target: items, Utility: mca.SubmodularResidual{}, Rebid: mca.RebidOnChange},
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = a
	}
	return out
}

func TestSimulatorIsDeterministic(t *testing.T) {
	g := graph.Complete(3)
	f := Faults{Drop: 0.3, Delay: 2}
	first := NewSimulator(g, f).Run(faultAgents(t, 3, 2), 42, 300)
	for i := 0; i < 3; i++ {
		again := NewSimulator(g, f).Run(faultAgents(t, 3, 2), 42, 300)
		if again != first {
			t.Fatalf("run %d diverged: %+v vs %+v", i, again, first)
		}
	}
}

func TestDropFaultLosesMessages(t *testing.T) {
	g := graph.Complete(3)
	out := NewSimulator(g, Faults{Drop: 0.5}).Run(faultAgents(t, 3, 2), 7, 400)
	if out.Dropped == 0 {
		t.Fatalf("drop=0.5 run dropped nothing: %+v", out)
	}
}

func TestCertainDropNeverConverges(t *testing.T) {
	g := graph.Complete(2)
	out := NewSimulator(g, Faults{Drop: 1}).Run(faultAgents(t, 2, 2), 1, 200)
	if out.Deliveries != 0 {
		t.Fatalf("drop=1 processed %d messages", out.Deliveries)
	}
	if out.Converged {
		t.Fatal("drop=1 converged despite total loss")
	}
}

func TestDelayPreservesConvergence(t *testing.T) {
	g := graph.Ring(4)
	out := NewSimulator(g, Faults{Delay: 5}).Run(faultAgents(t, 4, 3), 3, 2000)
	if !out.Converged {
		t.Fatalf("delayed but reliable run did not converge: %+v", out)
	}
}

func TestPerEdgeDelayOverride(t *testing.T) {
	g := graph.Complete(2)
	out := NewSimulator(g, Faults{DelayEdge: map[Edge]int{{From: 0, To: 1}: 10}}).Run(faultAgents(t, 2, 2), 5, 500)
	if !out.Converged {
		t.Fatalf("asymmetric delay broke convergence: %+v", out)
	}
}

func TestPermanentPartitionBlocksAgreement(t *testing.T) {
	g := graph.Complete(4)
	out := NewSimulator(g, Faults{Partitions: [][]int{{0, 1}, {2, 3}}}).Run(faultAgents(t, 4, 2), 9, 1000)
	if out.Converged {
		t.Fatal("agents agreed across a permanent partition")
	}
}

func TestHealedPartitionRecovers(t *testing.T) {
	g := graph.Complete(3)
	// Messages crossing a healing cut are held, not lost, so consensus
	// must complete once the partition ends.
	out := NewSimulator(g, Faults{Partitions: [][]int{{0}, {1, 2}}, HealAfter: 6}).Run(faultAgents(t, 3, 2), 11, 2000)
	if !out.Converged {
		t.Fatalf("partition healed but no convergence: %+v", out)
	}
}

func TestHealedTotalCutRecovers(t *testing.T) {
	// A star whose hub is cut off severs every edge: nothing is
	// deliverable while the partition is active, the clock must advance
	// to the heal tick, and the held messages then complete consensus.
	g := graph.Star(3)
	out := NewSimulator(g, Faults{Partitions: [][]int{{0}, {1, 2}}, HealAfter: 5}).Run(faultAgents(t, 3, 2), 13, 2000)
	if !out.Converged {
		t.Fatalf("total cut healed but no convergence: %+v", out)
	}
}

func TestApplyPartitionsMasksCrossEdges(t *testing.T) {
	g := graph.Complete(4)
	f := Faults{Partitions: [][]int{{0, 1}, {2, 3}}}
	masked := f.ApplyPartitions(g)
	if masked.HasEdge(0, 2) || masked.HasEdge(1, 3) {
		t.Fatal("cross-partition edge survived masking")
	}
	if !masked.HasEdge(0, 1) || !masked.HasEdge(2, 3) {
		t.Fatal("intra-partition edge removed")
	}
	if g.HasEdge(0, 2) != true {
		t.Fatal("original graph mutated")
	}
}

func TestFaultsClassification(t *testing.T) {
	if !(Faults{}).None() {
		t.Fatal("zero Faults not None")
	}
	if (Faults{Drop: 0.1}).None() || !(Faults{Drop: 0.1}).Probabilistic() {
		t.Fatal("drop misclassified")
	}
	if (Faults{Delay: 1}).Probabilistic() {
		t.Fatal("pure delay classified probabilistic")
	}
	if (Faults{Duplicate: 0.2}).None() || !(Faults{Duplicate: 0.2}).Probabilistic() {
		t.Fatal("duplication misclassified")
	}
	if (Faults{Reorder: 2}).None() || !(Faults{Reorder: 2}).Probabilistic() {
		t.Fatal("reordering misclassified")
	}
	f := Faults{Partitions: [][]int{{0}, {1}}}
	if !f.StaticPartitionOnly() {
		t.Fatal("permanent partition not static")
	}
	f.HealAfter = 3
	if f.StaticPartitionOnly() {
		t.Fatal("healing partition classified static")
	}
	f.HealAfter = 0
	f.Reorder = 1
	if f.StaticPartitionOnly() {
		t.Fatal("reordering partition classified static")
	}
}

func TestDuplicateFaultForksDeliveries(t *testing.T) {
	g := graph.Complete(3)
	out := NewSimulator(g, Faults{Duplicate: 0.5}).Run(faultAgents(t, 3, 2), 17, 2000)
	if out.Duplicated == 0 {
		t.Fatalf("duplicate=0.5 run forked nothing: %+v", out)
	}
	if !out.Converged {
		// Duplication is benign for max-consensus: re-processing an old
		// snapshot never un-learns information.
		t.Fatalf("at-least-once delivery broke convergence: %+v", out)
	}
}

func TestCertainDuplicationStillTerminates(t *testing.T) {
	g := graph.Ring(4)
	out := NewSimulator(g, Faults{Duplicate: 1}).Run(faultAgents(t, 4, 3), 19, 300)
	// Every delivery forks a copy, so the channel never drains; the run
	// must stop on its delivery budget instead of spinning.
	if out.Duplicated == 0 || out.Deliveries+out.Dropped > 300 {
		t.Fatalf("duplicate=1 budget accounting broken: %+v", out)
	}
}

func TestReorderPreservesConvergence(t *testing.T) {
	// Unbounded-window reordering over every topology the suite uses:
	// snapshots carry full views, so processing them out of order must
	// not lose information.
	for _, g := range []*graphCase{{graph.Ring(4), 4}, {graph.Star(4), 4}, {graph.Complete(3), 3}} {
		out := NewSimulator(g.g, Faults{Reorder: 8}).Run(faultAgents(t, g.n, 2), 23, 4000)
		if !out.Converged {
			t.Fatalf("reordered run on %d-node graph did not converge: %+v", g.n, out)
		}
	}
}

type graphCase struct {
	g *graph.Graph
	n int
}

func TestReorderWithDelayIsDeterministic(t *testing.T) {
	g := graph.Complete(3)
	f := Faults{Reorder: 3, Delay: 2, Duplicate: 0.3, Drop: 0.1}
	first := NewSimulator(g, f).Run(faultAgents(t, 3, 2), 29, 1500)
	for i := 0; i < 3; i++ {
		again := NewSimulator(g, f).Run(faultAgents(t, 3, 2), 29, 1500)
		if again != first {
			t.Fatalf("run %d diverged: %+v vs %+v", i, again, first)
		}
	}
}

func TestDeliverAtPopsMiddleSlot(t *testing.T) {
	g := graph.Line(2)
	n := New(g)
	for i := 0; i < 3; i++ {
		n.Send(mca.Message{Sender: 0, Receiver: 1, InfoTimes: []int{i}})
	}
	e := Edge{From: 0, To: 1}
	if got := n.QueueLen(e); got != 3 {
		t.Fatalf("QueueLen = %d, want 3", got)
	}
	m := n.DeliverAt(e, 1)
	if m.InfoTimes[0] != 1 {
		t.Fatalf("DeliverAt(1) popped message %d", m.InfoTimes[0])
	}
	if got := queued(n, e); len(got) != 2 || got[0].InfoTimes[0] != 0 || got[1].InfoTimes[0] != 2 {
		t.Fatalf("queue after middle pop: %+v", got)
	}
}

// TestDelayAtCeilingStillDelays: the largest delay, delay_edge and
// heal_after a scenario may carry (engine.MaxFaultTicks, 2^30) hold a
// message for the full count, even one sent after the clock has already
// advanced that far. Near MaxInt, tick+delay wrapped negative and the
// message was deliverable at once: a silently reliable channel.
func TestDelayAtCeilingStillDelays(t *testing.T) {
	const ceiling = 1 << 30
	e := Edge{From: 0, To: 1}
	for _, tc := range []struct {
		name      string
		faults    Faults
		tick      int // when the message is sent
		wantReady int
	}{
		{"delay", Faults{Delay: ceiling}, ceiling, 2 * ceiling},
		{"delay_edge", Faults{DelayEdge: map[Edge]int{e: ceiling}}, ceiling, 2 * ceiling},
		{"heal_after", Faults{Partitions: [][]int{{0}, {1}}, HealAfter: ceiling}, 0, ceiling},
		{"heal_after+delay", Faults{Partitions: [][]int{{0}, {1}}, HealAfter: ceiling, Delay: ceiling}, ceiling - 1, 2*ceiling - 1},
	} {
		fr := newFaultRun(graph.Complete(2), tc.faults)
		fr.tick = tc.tick
		fr.send(mca.Message{Sender: 0, Receiver: 1})
		if d := fr.deliverable(); len(d) != 0 {
			t.Errorf("%s: deliverable at once: %v", tc.name, d)
		}
		if got := fr.minReady(); got != tc.wantReady {
			t.Errorf("%s: ready at tick %d, want %d", tc.name, got, tc.wantReady)
		}
	}
}

// TestLongRunPayloadBuffersStayBounded: a run's payload buffers collect
// every broadcast and reply it sends, but move on to a fresh chunk past
// payloadChunk entries, so a long run holds the payloads still queued,
// not every payload it ever sent.
func TestLongRunPayloadBuffersStayBounded(t *testing.T) {
	agents := make([]*mca.Agent, 2)
	for i := range agents {
		agents[i] = mca.MustNewAgent(mca.Config{
			ID: mca.AgentID(i), Items: 2, Base: []int64{10, 20},
			Policy: mca.Policy{Target: 2, Utility: mca.EscalatingUtility{}, Rebid: mca.RebidAlways},
		})
	}
	sim := NewSimulator(graph.Line(2), Faults{})
	const maxDeliveries = 20000
	if out := sim.Run(agents, 1, maxDeliveries); out.Deliveries != maxDeliveries {
		t.Fatalf("escalating agents ran %+v, want the whole %d-delivery budget", out, maxDeliveries)
	}
	if c := cap(sim.fr.views); c > 4*payloadChunk {
		t.Fatalf("after %d deliveries the view buffer holds %d entries, want at most %d", maxDeliveries, c, 4*payloadChunk)
	}
}
