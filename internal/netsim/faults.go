package netsim

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/mca"
)

// Faults describes adversarial network conditions for the randomized
// asynchronous runner — the delivery semantics the paper's Alloy model
// cannot express (its netState signature assumes reliable, eventually
// delivered messages). All randomness is drawn from the run's seeded
// stream, so a (Faults, seed) pair reproduces the same execution.
type Faults struct {
	// Drop is the probability (0..1) that a message is lost at delivery
	// time instead of being processed by the receiver.
	Drop float64
	// DropEdge overrides Drop for specific directed edges.
	DropEdge map[Edge]float64
	// Delay holds every message for this many delivery ticks after it is
	// sent before it becomes eligible for delivery.
	Delay int
	// DelayEdge overrides Delay for specific directed edges.
	DelayEdge map[Edge]int
	// Duplicate is the probability (0..1) that a delivered message is
	// also re-enqueued at the tail of its channel — at-least-once
	// delivery with a per-delivery coin. The duplicate is a fresh send:
	// it re-enters the delay line at the current tick and competes for
	// future delivery slots, so duplication pressure consumes the run's
	// delivery budget rather than extending it.
	Duplicate float64
	// Reorder bounds in-channel overtaking: a delivery on an edge may
	// pop any of the first Reorder+1 deliverable messages of that
	// edge's queue instead of strictly the head. 0 keeps channels FIFO;
	// messages still held by the delay line or an active partition are
	// never eligible to overtake.
	Reorder int
	// Partitions groups nodes into isolated blocks. While the partition
	// is active, a message whose endpoints sit in different blocks is
	// lost at the cut when the partition is permanent (HealAfter 0), or
	// held at the cut and delivered once the partition heals otherwise.
	// Nodes absent from every block form one implicit extra block.
	Partitions [][]int
	// HealAfter ends the partition at this delivery tick; 0 keeps it
	// active for the whole run.
	HealAfter int
}

// None reports whether the fault model is empty (reliable network).
func (f Faults) None() bool {
	return f.Drop == 0 && len(f.DropEdge) == 0 &&
		f.Delay == 0 && len(f.DelayEdge) == 0 &&
		f.Duplicate == 0 && f.Reorder == 0 && len(f.Partitions) == 0
}

// Probabilistic reports whether the model has a random component
// (drops, duplication, reordering coins) as opposed to purely
// structural faults (delays, partitions).
func (f Faults) Probabilistic() bool {
	if f.Drop > 0 || f.Duplicate > 0 || f.Reorder > 0 {
		return true
	}
	for _, p := range f.DropEdge {
		if p > 0 {
			return true
		}
	}
	return false
}

// StaticPartitionOnly reports whether the model consists solely of a
// permanent partition — the one fault the exhaustive explorers can
// express exactly, by checking on the partition-masked agent graph.
func (f Faults) StaticPartitionOnly() bool {
	return !f.Probabilistic() && f.Delay == 0 && len(f.DelayEdge) == 0 &&
		len(f.Partitions) > 0 && f.HealAfter == 0
}

// blockOf maps each node to its partition block; nodes outside every
// block share the implicit block -1.
func (f Faults) blockOf(n int) []int {
	block := make([]int, n)
	for i := range block {
		block[i] = -1
	}
	for b, nodes := range f.Partitions {
		for _, u := range nodes {
			if u >= 0 && u < n {
				block[u] = b
			}
		}
	}
	return block
}

// ApplyPartitions returns g with every edge crossing a partition block
// removed — the subgraph a permanent partition leaves behind.
func (f Faults) ApplyPartitions(g *graph.Graph) *graph.Graph {
	if len(f.Partitions) == 0 {
		return g
	}
	block := f.blockOf(g.N())
	masked := g.Clone()
	for _, e := range g.Edges() {
		if block[e.U] != block[e.V] {
			masked.RemoveEdge(e.U, e.V)
		}
	}
	return masked
}

func (f Faults) dropProb(e Edge) float64 {
	if p, ok := f.DropEdge[e]; ok {
		return p
	}
	return f.Drop
}

func (f Faults) delayOf(e Edge) int {
	if d, ok := f.DelayEdge[e]; ok {
		return d
	}
	return f.Delay
}

// AsyncConfig parameterizes a randomized asynchronous run.
type AsyncConfig struct {
	// Seed drives the delivery order and the drop coin flips.
	Seed int64
	// MaxDeliveries caps the number of delivery ticks (processed plus
	// dropped messages).
	MaxDeliveries int
	// Faults is the network fault model; the zero value is a reliable
	// network, making RunAsyncWith a superset of RunAsync.
	Faults Faults
}

// RunAsyncWith drives the agents with a seeded random delivery order
// under the configured fault model until quiescence with agreement or
// until the delivery budget is spent. Dropped messages consume a
// delivery tick (the channel did work; the receiver saw nothing), so a
// lossy run terminates on the same budget as a reliable one.
func RunAsyncWith(agents []*mca.Agent, g *graph.Graph, cfg AsyncConfig) AsyncOutcome {
	fr := newFaultRun(g, cfg.Faults)
	n := fr.net
	for _, a := range agents {
		if a.BidPhase() {
			fr.broadcast(a)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out AsyncOutcome
	for out.Deliveries+out.Dropped < cfg.MaxDeliveries {
		deliverable := fr.deliverable()
		if len(deliverable) == 0 {
			if n.Quiescent() {
				break
			}
			// Everything in flight is still delayed: advance the clock to
			// the earliest ready tick instead of spinning.
			fr.tick = fr.minReady()
			continue
		}
		e := deliverable[rng.Intn(len(deliverable))]
		m := fr.deliverNext(e, rng)
		// Each fault coin is drawn only when its knob is configured, so
		// a fault-free config replays exactly the same delivery sequence
		// as RunAsync — and adding a new fault model never perturbs
		// corpora that leave it zero.
		if p := cfg.Faults.Duplicate; p > 0 && rng.Float64() < p {
			// The duplicate is a fresh send on the same channel: it
			// re-enters the delay line at the current tick and is
			// delivered (or dropped) on a later tick of its own.
			out.Duplicated++
			fr.send(m)
		}
		if p := cfg.Faults.dropProb(e); p > 0 && rng.Float64() < p {
			out.Dropped++
			continue
		}
		out.Deliveries++
		receiver := agents[e.To]
		if receiver.HandleMessage(m) {
			fr.broadcast(receiver)
		} else if !receiver.ViewAgrees(m.View) {
			// The receiver kept a view that contradicts the sender's:
			// reply so the disagreement cannot silently persist at
			// quiescence.
			fr.send(receiver.Snapshot(m.Sender))
		}
	}
	if n.Quiescent() {
		agree := true
		for i := 1; i < len(agents); i++ {
			if !agents[0].AgreesWith(agents[i]) {
				agree = false
				break
			}
		}
		out.Converged = agree
	}
	return out
}

// faultRun wraps a Network with the fault bookkeeping of one run: the
// delivery clock, a per-edge FIFO of ready times parallel to the queue
// contents, and the partition block map.
type faultRun struct {
	net    *Network
	faults Faults
	block  []int // node -> partition block; nil when no partition
	tick   int   // advances once per delivery (processed or dropped)
	// readyAt[e][i] is the earliest tick the i-th queued message of edge
	// e may be delivered; aligned with the network's FIFO queue.
	readyAt map[Edge][]int
	// pendBuf is reused across deliverable calls (one per delivery tick).
	pendBuf []Edge
}

// newFaultRun starts the fault bookkeeping of a run on a fresh network
// over g, at tick 0.
func newFaultRun(g *graph.Graph, f Faults) *faultRun {
	fr := &faultRun{net: New(g), faults: f}
	if len(f.Partitions) > 0 {
		fr.block = f.blockOf(g.N())
	}
	if f.Delay > 0 || len(f.DelayEdge) > 0 || (len(f.Partitions) > 0 && f.HealAfter > 0) {
		// Stamp every send from the start so the delay line stays aligned
		// with the FIFO queues (healing partitions hold messages on it).
		fr.readyAt = make(map[Edge][]int)
	}
	return fr
}

// partitioned reports whether the edge crosses an active partition cut.
func (fr *faultRun) partitioned(e Edge) bool {
	if fr.block == nil {
		return false
	}
	if fr.faults.HealAfter > 0 && fr.tick >= fr.faults.HealAfter {
		return false
	}
	return fr.block[e.From] != fr.block[e.To]
}

// send enqueues one message, applying partition cuts and stamping the
// delay line.
func (fr *faultRun) send(m mca.Message) {
	e := Edge{From: m.Sender, To: m.Receiver}
	if fr.partitioned(e) {
		if fr.faults.HealAfter <= 0 {
			return // permanent cut: the message is lost
		}
		// Healing cut: hold the message on the delay line until the
		// partition ends (plus any configured edge delay).
		fr.net.Send(m)
		ready := fr.faults.HealAfter
		if d := fr.tick + fr.faults.delayOf(e); d > ready {
			ready = d
		}
		fr.readyAt[e] = append(fr.readyAt[e], ready)
		return
	}
	fr.net.Send(m)
	if fr.readyAt != nil {
		fr.readyAt[e] = append(fr.readyAt[e], fr.tick+fr.faults.delayOf(e))
	}
}

func (fr *faultRun) broadcast(a *mca.Agent) {
	// Build the snapshot payload once for the fan-out; partition cuts and
	// delay stamping still run per edge in send.
	view, times := a.SnapshotParts()
	from := a.ID()
	for _, nb := range fr.net.Neighbors(int(from)) {
		fr.send(mca.Message{Sender: from, Receiver: mca.AgentID(nb), View: view, InfoTimes: times})
	}
}

// deliverable returns the pending edges whose head message is ready at
// the current tick, in the network's deterministic sorted order. The
// returned slice is reused across calls.
func (fr *faultRun) deliverable() []Edge {
	pending := fr.net.PendingInto(fr.pendBuf[:0])
	fr.pendBuf = pending
	if fr.readyAt == nil {
		return pending
	}
	out := pending[:0]
	for _, e := range pending {
		if r := fr.readyAt[e]; len(r) == 0 || r[0] <= fr.tick {
			out = append(out, e)
		}
	}
	return out
}

// minReady returns the earliest ready tick over all pending heads; it is
// only called when every pending head is delayed past the current tick.
func (fr *faultRun) minReady() int {
	min := -1
	fr.pendBuf = fr.net.PendingInto(fr.pendBuf[:0])
	for _, e := range fr.pendBuf {
		if r := fr.readyAt[e]; len(r) > 0 && (min == -1 || r[0] < min) {
			min = r[0]
		}
	}
	if min < 0 {
		return fr.tick
	}
	return min
}

// deliverNext pops one message from edge e — the head on FIFO
// channels, or a seeded pick from the reorder window when the fault
// model allows overtaking — removes its delay stamp, and advances the
// clock by one tick. The reorder coin is drawn only when the window
// genuinely offers a choice, so Reorder=0 configs replay the exact
// random stream they always did.
func (fr *faultRun) deliverNext(e Edge, rng *rand.Rand) mca.Message {
	idx := 0
	if k := fr.faults.Reorder; k > 0 {
		if w := fr.reorderWindow(e, k+1); w > 1 {
			idx = rng.Intn(w)
		}
	}
	m := fr.net.DeliverAt(e, idx)
	if fr.readyAt != nil {
		if r := fr.readyAt[e]; idx < len(r) {
			r = append(r[:idx], r[idx+1:]...)
			if len(r) == 0 {
				delete(fr.readyAt, e)
			} else {
				fr.readyAt[e] = r
			}
		}
	}
	fr.tick++
	return m
}

// reorderWindow returns how many messages at the front of edge e's
// queue are eligible for this delivery: at most max, clipped to the
// queue length and — when the delay line is active — to the prefix of
// messages already past their ready tick (delay stamps are
// non-decreasing along a queue, so the ready set is always a prefix).
func (fr *faultRun) reorderWindow(e Edge, max int) int {
	w := fr.net.QueueLen(e)
	if w > max {
		w = max
	}
	if fr.readyAt != nil {
		r := fr.readyAt[e]
		ready := 0
		for ready < len(r) && ready < w && r[ready] <= fr.tick {
			ready++
		}
		if len(r) > 0 && ready < w {
			w = ready
		}
	}
	return w
}
