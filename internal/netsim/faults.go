package netsim

import (
	"math/rand/v2"

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

// pcgStream is the second PCG seed word of every run; the first is the
// run's seed.
const pcgStream = 0x9e3779b97f4a7c15

// Simulator runs seeded asynchronous executions over one graph under one
// fault model. Its network, delay line and generator are reset in place
// by every Run, so a batch of runs pays for their deliveries, not for
// building a network and seeding a generator each time. A Simulator is
// single-goroutine state.
type Simulator struct {
	fr  *faultRun
	pcg *rand.PCG
	rng *rand.Rand
}

// NewSimulator builds the network and fault bookkeeping for runs of g
// under f.
func NewSimulator(g *graph.Graph, f Faults) *Simulator {
	pcg := rand.NewPCG(0, pcgStream)
	return &Simulator{fr: newFaultRun(g, f), pcg: pcg, rng: rand.New(pcg)}
}

// Run drives the agents from an empty network at tick 0 with the
// delivery order and fault coins of seed, until quiescence with
// agreement or until maxDeliveries ticks are spent. The run draws from a
// PCG (math/rand/v2, O'Neill 2014) seeded with the words
// (uint64(seed), 0x9e3779b97f4a7c15), so every int64 seed, negative
// ones included, names its own stream. Dropped messages
// consume a delivery tick (the channel did work; the receiver saw
// nothing), so a lossy run terminates on the same budget as a reliable
// one. The outcome depends only on (agents, graph, faults, seed,
// maxDeliveries), never on earlier runs of the Simulator.
//
// Run mutates the agents, so a caller that runs one agent set again
// restores it first (mca.Agent.RestoreState from a SaveState taken
// before the first run). Every message payload of a run is appended to
// two buffers the Simulator keeps and rewinds at the start of the next
// run: no message outlives its run, so a run allocates when a buffer
// grows, not once per message.
func (s *Simulator) Run(agents []*mca.Agent, seed int64, maxDeliveries int) AsyncOutcome {
	fr, rng := s.fr, s.rng
	fr.reset()
	s.pcg.Seed(uint64(seed), pcgStream)
	for _, a := range agents {
		if a.BidPhase() {
			fr.broadcast(a)
		}
	}
	var out AsyncOutcome
	for out.Deliveries+out.Dropped < maxDeliveries {
		deliverable := fr.deliverable()
		if len(deliverable) == 0 {
			if fr.net.Quiescent() {
				break
			}
			// Everything in flight is still delayed: advance the clock to
			// the earliest ready tick instead of spinning.
			fr.tick = fr.minReady()
			continue
		}
		id := deliverable[rng.IntN(len(deliverable))]
		e := fr.net.edges[id]
		m := fr.deliverNext(id, rng)
		// Each fault coin is drawn only when its knob is configured, so
		// a fault-free config replays exactly the same delivery sequence
		// as RunAsync — and adding a new fault model never perturbs
		// corpora that leave it zero.
		if p := fr.faults.Duplicate; p > 0 && rng.Float64() < p {
			// The duplicate is a fresh send on the same channel: it
			// re-enters the delay line at the current tick and is
			// delivered (or dropped) on a later tick of its own.
			out.Duplicated++
			fr.send(m)
		}
		if p := fr.faults.dropProb(e); p > 0 && rng.Float64() < p {
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
			view, times := fr.snapshot(receiver)
			fr.send(mca.Message{Sender: receiver.ID(), Receiver: m.Sender, View: view, InfoTimes: times})
		}
	}
	if fr.net.Quiescent() {
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

// faultRun wraps a Network with the fault bookkeeping of a run: the
// delivery clock, a per-edge FIFO of ready times parallel to the queue
// contents, and the partition block map.
type faultRun struct {
	net    *Network
	faults Faults
	block  []int // node -> partition block; nil when no partition
	tick   int   // advances once per delivery (processed or dropped)
	// readyAt[id][i] is the earliest tick the i-th queued message of
	// edge id may be delivered: indexed like the network's queues and
	// aligned with each FIFO. nil when nothing is ever held.
	readyAt [][]int
	// pendBuf is reused across deliverable calls (one per delivery tick).
	pendBuf []int32
	// views and times are the run's message payloads, appended by
	// snapshot and rewound by reset: no message outlives its run, so the
	// next run may overwrite them. The explorers never share these —
	// their messages outlive the branch that sent them.
	views []mca.BidInfo
	times []int
}

// payloadChunk bounds the entries one payload buffer collects before
// snapshot moves on to a fresh one. In-flight messages keep their
// buffer alive, so without a bound a long run would hold every payload
// it ever sent rather than only those still queued.
const payloadChunk = 1 << 12

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
		fr.readyAt = make([][]int, len(fr.net.queues))
	}
	return fr
}

// reset empties the network and the delay line, rewinds the payload
// buffers and the clock, keeping every backing array for the next run.
func (fr *faultRun) reset() {
	fr.net.reset()
	for id := range fr.readyAt {
		fr.readyAt[id] = fr.readyAt[id][:0]
	}
	fr.views, fr.times = fr.views[:0], fr.times[:0]
	fr.tick = 0
}

// snapshot appends a's message payload to the run's buffers and returns
// it; every receiver of a broadcast shares the one payload.
func (fr *faultRun) snapshot(a *mca.Agent) ([]mca.BidInfo, []int) {
	if len(fr.views) >= payloadChunk || len(fr.times) >= payloadChunk {
		fr.views = make([]mca.BidInfo, 0, cap(fr.views))
		fr.times = make([]int, 0, cap(fr.times))
	}
	view, times, views, ts := a.AppendSnapshot(fr.views, fr.times)
	fr.views, fr.times = views, ts
	return view, times
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
	cut := fr.partitioned(e)
	if cut && fr.faults.HealAfter <= 0 {
		return // permanent cut: the message is lost
	}
	id := fr.net.eid(e)
	fr.net.enqueue(id, m, mca.MessageContentHash(m))
	if fr.readyAt != nil {
		ready := fr.tick + fr.faults.delayOf(e)
		if cut {
			// Healing cut: hold the message on the delay line until the
			// partition ends (plus any configured edge delay).
			ready = max(ready, fr.faults.HealAfter)
		}
		fr.readyAt[id] = append(fr.readyAt[id], ready)
	}
}

func (fr *faultRun) broadcast(a *mca.Agent) {
	// Build the snapshot payload once for the fan-out; partition cuts and
	// delay stamping still run per edge in send.
	view, times := fr.snapshot(a)
	from := a.ID()
	for _, nb := range fr.net.Neighbors(int(from)) {
		fr.send(mca.Message{Sender: from, Receiver: mca.AgentID(nb), View: view, InfoTimes: times})
	}
}

// deliverable returns the ids of the pending edges whose head message is
// ready at the current tick, in the network's deterministic sorted edge
// order. The returned slice is reused across calls.
func (fr *faultRun) deliverable() []int32 {
	out := fr.pendBuf[:0]
	for id, q := range fr.net.queues {
		if len(q) == 0 {
			continue
		}
		if fr.readyAt != nil && fr.readyAt[id][0] > fr.tick {
			continue
		}
		out = append(out, int32(id))
	}
	fr.pendBuf = out
	return out
}

// minReady returns the earliest ready tick over all pending heads; it is
// only called when every pending head is delayed past the current tick.
func (fr *faultRun) minReady() int {
	min := -1
	for _, r := range fr.readyAt {
		if len(r) > 0 && (min == -1 || r[0] < min) {
			min = r[0]
		}
	}
	if min < 0 {
		return fr.tick
	}
	return min
}

// deliverNext pops one message from edge id — the head on FIFO
// channels, or a seeded pick from the reorder window when the fault
// model allows overtaking — removes its delay stamp, and advances the
// clock by one tick. The reorder coin is drawn only when the window
// genuinely offers a choice, so Reorder=0 configs replay the exact
// random stream they always did.
func (fr *faultRun) deliverNext(id int32, rng *rand.Rand) mca.Message {
	idx := 0
	if k := fr.faults.Reorder; k > 0 {
		if w := fr.reorderWindow(id, k+1); w > 1 {
			idx = rng.IntN(w)
		}
	}
	m := fr.net.DeliverAt(fr.net.edges[id], idx)
	if fr.readyAt != nil {
		r := fr.readyAt[id]
		fr.readyAt[id] = append(r[:idx], r[idx+1:]...)
	}
	fr.tick++
	return m
}

// reorderWindow returns how many messages at the front of edge id's
// queue are eligible for this delivery: at most limit, clipped to the
// queue length and — when the delay line is active — to the prefix of
// messages already past their ready tick (delay stamps are
// non-decreasing along a queue, so the ready set is always a prefix).
func (fr *faultRun) reorderWindow(id int32, limit int) int {
	w := min(len(fr.net.queues[id]), limit)
	if fr.readyAt != nil {
		r := fr.readyAt[id]
		ready := 0
		for ready < w && r[ready] <= fr.tick {
			ready++
		}
		w = ready
	}
	return w
}
