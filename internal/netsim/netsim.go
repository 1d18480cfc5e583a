package netsim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mca"
)

// Edge is a directed agent-to-agent channel.
type Edge struct {
	From, To mca.AgentID
}

// qcell is one queued message plus its content digest, computed once at
// send time (messages are immutable) so the explorers' canonical keys
// never re-serialize queue contents.
type qcell struct {
	msg mca.Message
	h   [2]uint64
	// viewBuf and timesBuf are decode-owned backing storage, written
	// only by DecodeState for this slot. Live messages share their View
	// and InfoTimes slices across a broadcast fan-out and across
	// clones, so a decoder must never write into msg's own backing; a
	// scratch network decoded repeatedly instead reuses these per-slot
	// buffers and points msg at them.
	viewBuf  []mca.BidInfo
	timesBuf []int
}

// Network holds the in-transit messages: each directed edge is a FIFO
// queue, unbounded unless LimitQueueDepth bounds it (depth 1 is the
// gossip abstraction for max-consensus protocols — an edge carries at
// most the latest snapshot from its sender).
//
// The agent graph is static, so channels live in dense edge-indexed
// arrays rather than a map: the explorers hit Send/Deliver/Pending
// millions of times per check, and array indexing plus reused backing
// storage keeps that hot path free of map overhead and steady-state
// allocation.
type Network struct {
	g        *graph.Graph
	maxDepth int // per-edge queue bound (0 = unbounded); tail coalesces when full
	n        int
	eids     []int32   // n*n dense lookup: from*n+to -> edge id, -1 if absent
	edges    []Edge    // static directed edges, sorted by (From, To)
	queues   [][]qcell // per edge id; backing reused across send/deliver cycles
	nonEmpty int       // number of edges currently carrying messages
	nbrs     [][]int   // sorted neighbor lists; immutable, shared by clones
}

// New creates an empty network over the agent graph.
func New(g *graph.Graph) *Network {
	n := g.N()
	nbrs := make([][]int, n)
	eids := make([]int32, n*n)
	for i := range eids {
		eids[i] = -1
	}
	var edges []Edge
	for u := range nbrs {
		nbrs[u] = g.Neighbors(u)
		for _, v := range nbrs[u] {
			eids[u*n+v] = int32(len(edges))
			edges = append(edges, Edge{From: mca.AgentID(u), To: mca.AgentID(v)})
		}
	}
	return &Network{
		g: g, n: n,
		eids: eids, edges: edges,
		queues: make([][]qcell, len(edges)),
		nbrs:   nbrs,
	}
}

// eid resolves a directed edge to its dense index, panicking on edges
// absent from the agent graph (the same contract map-backed Send had).
func (n *Network) eid(e Edge) int32 {
	if e.From >= 0 && int(e.From) < n.n && e.To >= 0 && int(e.To) < n.n {
		if id := n.eids[int(e.From)*n.n+int(e.To)]; id >= 0 {
			return id
		}
	}
	panic(fmt.Sprintf("netsim: no edge %d->%d", e.From, e.To))
}

// Neighbors returns the sorted neighbor list of node u, cached at
// construction so the delivery hot paths never rebuild it. Callers must
// not modify the returned slice.
func (n *Network) Neighbors(u int) []int { return n.nbrs[u] }

// Graph returns the agent graph.
func (n *Network) Graph() *graph.Graph { return n.g }

// LimitQueueDepth bounds each directed edge to at most k in-flight
// messages: when full, the newest queued message is replaced by the new
// one (the head — the oldest in-flight message — is preserved, so stale
// deliveries remain representable). This mirrors the bounded message
// scope of the paper's Alloy analysis and keeps the explorer's state
// space finite. k <= 0 restores unbounded queues.
func (n *Network) LimitQueueDepth(k int) { n.maxDepth = k }

// enqueue applies the channel semantics for one message on edge id.
func (n *Network) enqueue(id int32, m mca.Message, h [2]uint64) {
	q := n.queues[id]
	if len(q) == 0 {
		n.nonEmpty++
	} else if n.maxDepth > 0 && len(q) >= n.maxDepth {
		q[len(q)-1] = qcell{msg: m, h: h}
		return
	}
	n.queues[id] = append(q, qcell{msg: m, h: h})
}

// Send enqueues a message on the edge (m.Sender, m.Receiver). The edge
// must exist in the agent graph.
func (n *Network) Send(m mca.Message) {
	id := n.eid(Edge{From: m.Sender, To: m.Receiver})
	n.enqueue(id, m, mca.MessageContentHash(m))
}

// BroadcastAgent broadcasts the agent's current snapshot to every
// neighbor, building the shared payload (view copy, information-time
// vector, content digest) once for the whole fan-out instead of once
// per edge — the allocation-lean path the explorers drive.
func (n *Network) BroadcastAgent(a *mca.Agent) {
	nbrs := n.nbrs[a.ID()]
	if len(nbrs) == 0 {
		return
	}
	view, times := a.SnapshotParts()
	h := mca.MessageContentHash(mca.Message{View: view})
	from := a.ID()
	for _, nb := range nbrs {
		to := mca.AgentID(nb)
		id := n.eids[int(from)*n.n+nb]
		n.enqueue(id, mca.Message{Sender: from, Receiver: to, View: view, InfoTimes: times}, h)
	}
}

// PendingInto appends the edges that currently carry at least one
// message to buf (normally buf[:0] of a reused buffer), in deterministic
// sorted order, without allocating in steady state.
func (n *Network) PendingInto(buf []Edge) []Edge {
	for i, q := range n.queues {
		if len(q) > 0 {
			buf = append(buf, n.edges[i])
		}
	}
	return buf
}

// reset empties every queue, keeping the backing arrays.
func (n *Network) reset() {
	for i := range n.queues {
		n.queues[i] = n.queues[i][:0]
	}
	n.nonEmpty = 0
}

// Quiescent reports whether no messages are in transit; the network
// counts non-empty edges on every queue mutation, so this is one
// compare on the explorers' per-state hot path.
func (n *Network) Quiescent() bool { return n.nonEmpty == 0 }

// InFlight counts in-transit messages.
func (n *Network) InFlight() int {
	c := 0
	for _, q := range n.queues {
		c += len(q)
	}
	return c
}

// Deliver pops the head message of the given edge. It panics if the edge
// is empty.
func (n *Network) Deliver(e Edge) mca.Message {
	return n.DeliverAt(e, 0)
}

// DeliverAt pops the i-th queued message of the given edge — the
// out-of-order delivery primitive behind the bounded-reordering fault
// model (i=0 is the plain FIFO Deliver). It panics when the slot does
// not exist.
func (n *Network) DeliverAt(e Edge, i int) mca.Message {
	id := n.eid(e)
	q := n.queues[id]
	if i < 0 || i >= len(q) {
		panic(fmt.Sprintf("netsim: deliver slot %d on edge %d->%d holding %d messages", i, e.From, e.To, len(q)))
	}
	m := q[i].msg
	copy(q[i:], q[i+1:]) // keep the backing array; queues are shallow
	n.queues[id] = q[:len(q)-1]
	if len(q) == 1 {
		n.nonEmpty--
	}
	return m
}

// QueueLen returns the number of messages queued on the edge.
func (n *Network) QueueLen(e Edge) int { return len(n.queues[n.eid(e)]) }

// Peek returns the head message of the edge without removing it.
func (n *Network) Peek(e Edge) (mca.Message, bool) {
	q := n.queues[n.eid(e)]
	if len(q) == 0 {
		return mca.Message{}, false
	}
	return q[0].msg, true
}

// ForEachQueued calls f for every in-transit message in deterministic
// order: edges sorted by (From, To), queue positions head first. The
// explorers' reference key serializer walks queue contents this way.
func (n *Network) ForEachQueued(f func(e Edge, m mca.Message)) {
	for i, q := range n.queues {
		for _, c := range q {
			f(n.edges[i], c.msg)
		}
	}
}

// ContentHash folds the timestamp-free content of every queued message
// — edge identity, queue position, and the per-cell digests cached at
// send time — into one 128-bit digest. Together with AppendTimeRanks it
// carries exactly the queue information the reference serializer
// encodes, at the cost of a few cached-word folds per in-flight
// message.
//
// This and the two walks below sit inside every canonical key, so they
// index the queues and hand *Message down: ranging over qcell values or
// passing a Message by value copies 150 and 64 bytes per message.
func (n *Network) ContentHash() [2]uint64 {
	h0, h1 := uint64(0x243f6a8885a308d3), uint64(0x13198a2e03707344)
	for i, q := range n.queues {
		if len(q) == 0 {
			continue
		}
		h0, h1 = mca.FoldHash(h0, h1, uint64(i)<<16|uint64(len(q)))
		for k := range q {
			h0, h1 = mca.FoldHash(h0, h1, q[k].h[0])
			h0, h1 = mca.FoldHash(h0, h1, q[k].h[1])
		}
	}
	return [2]uint64{h0, h1}
}

// AppendTimes appends every timestamp occurring in queued messages to
// ts, for the explorers' dense time ranking.
func (n *Network) AppendTimes(ts []int) []int {
	for _, q := range n.queues {
		for k := range q {
			ts = q[k].msg.AppendTimes(ts)
		}
	}
	return ts
}

// AppendTimeRanks appends the ranked timestamp slots of every queued
// message, in the same deterministic order as ContentHash, for a
// system of nAgents agents. The slots carry no edge or position marker:
// ContentHash binds which edges hold how many messages, and the key
// mixes both digests.
func (n *Network) AppendTimeRanks(buf []byte, r *mca.Ranker, nAgents int) []byte {
	for _, q := range n.queues {
		for k := range q {
			buf = q[k].msg.AppendTimeRanks(buf, r, nAgents)
		}
	}
	return buf
}

// Clone copies the network (used by the exhaustive explorers). Queue
// cells are copied but the Message values inside are shared: a message
// is immutable once sent (snapshots build fresh storage per broadcast,
// and receivers only read), so clones may alias message contents safely
// — which keeps cloning cheap on the explorers' hot path.
func (n *Network) Clone() *Network {
	return n.CloneInto(nil)
}

// CloneInto clones the network into dst, reusing dst's queue backing
// arrays when it was previously a clone of the same-shaped network —
// the pooling hook the parallel frontier uses to recycle per-state
// networks instead of allocating one per successor. A nil dst builds a
// fresh clone.
func (n *Network) CloneInto(dst *Network) *Network {
	if dst == nil {
		dst = &Network{queues: make([][]qcell, len(n.queues))}
	}
	queues := dst.queues
	*dst = *n
	dst.queues = queues
	if len(dst.queues) != len(n.queues) {
		dst.queues = make([][]qcell, len(n.queues))
	}
	for i, q := range n.queues {
		if len(q) == 0 {
			if len(dst.queues[i]) > 0 {
				dst.queues[i] = dst.queues[i][:0]
			}
			continue
		}
		dst.queues[i] = append(dst.queues[i][:0], q...)
		for k := range dst.queues[i] {
			// Decode buffers are per-network: sharing them between the
			// clone and the source would let two decoders corrupt each
			// other's cells.
			dst.queues[i][k].viewBuf = nil
			dst.queues[i][k].timesBuf = nil
		}
	}
	return dst
}

// appendUvarint / readUvarint are the wire primitives of the network's
// pointer-free state codec (LEB128).
func appendUvarint(buf []byte, u uint64) []byte {
	for u >= 0x80 {
		buf = append(buf, byte(u)|0x80)
		u >>= 7
	}
	return append(buf, byte(u))
}

func readUvarint(buf []byte) (uint64, []byte) {
	var u uint64
	var shift uint
	for i, b := range buf {
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return u, buf[i+1:]
		}
		shift += 7
	}
	panic("netsim: truncated network state encoding")
}

// zig / unzig map signed values onto the uvarint space.
func zig(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendState appends a compact pointer-free encoding of every queued
// message (contents, cached digests, queue structure) to buf;
// DecodeState reverses it into a same-shaped network, reusing the
// target's cell and slice storage. The parallel frontier stores each
// pending state's network this way — one byte slice the garbage
// collector never scans, decoded into a per-shard scratch network on
// processing — instead of keeping a cloned Network per frontier item.
func (n *Network) AppendState(buf []byte) []byte {
	for i, q := range n.queues {
		if len(q) == 0 {
			continue
		}
		buf = appendUvarint(buf, uint64(i)+1) // edge sections, 0-terminated
		buf = appendUvarint(buf, uint64(len(q)))
		for _, c := range q {
			buf = appendUvarint(buf, c.h[0])
			buf = appendUvarint(buf, c.h[1])
			buf = appendUvarint(buf, uint64(len(c.msg.View)))
			for _, bi := range c.msg.View {
				buf = appendUvarint(buf, zig(bi.Bid))
				buf = appendUvarint(buf, zig(int64(bi.Winner)))
				buf = appendUvarint(buf, uint64(bi.Time))
			}
			buf = appendUvarint(buf, uint64(len(c.msg.InfoTimes)))
			for _, t := range c.msg.InfoTimes {
				buf = appendUvarint(buf, uint64(t))
			}
		}
	}
	return append(buf, 0)
}

// DecodeState restores queue contents from an AppendState encoding,
// returning the unconsumed remainder of buf. The network must have the
// same shape (graph and configuration) as the encoder; its queue, view,
// and info-time backing arrays are reused, so a scratch network decoded
// repeatedly reaches a steady state with no allocation.
func (n *Network) DecodeState(buf []byte) []byte {
	for i := range n.queues {
		n.queues[i] = n.queues[i][:0]
	}
	n.nonEmpty = 0
	var u uint64
	for {
		u, buf = readUvarint(buf)
		if u == 0 {
			return buf
		}
		id := int(u - 1)
		var cnt uint64
		cnt, buf = readUvarint(buf)
		q := n.queues[id]
		for k := 0; k < int(cnt); k++ {
			// Reuse the cell (and its message's slice backing) already
			// present in the backing array when there is one.
			if k < cap(q) {
				q = q[:k+1]
			} else {
				q = append(q, qcell{})
			}
			c := &q[k]
			c.h[0], buf = readUvarint(buf)
			c.h[1], buf = readUvarint(buf)
			var vl uint64
			vl, buf = readUvarint(buf)
			view := c.viewBuf[:0]
			for j := 0; j < int(vl); j++ {
				var bid, win, tm uint64
				bid, buf = readUvarint(buf)
				win, buf = readUvarint(buf)
				tm, buf = readUvarint(buf)
				view = append(view, mca.BidInfo{
					Bid: unzig(bid), Winner: mca.AgentID(unzig(win)), Time: int(tm),
				})
			}
			c.viewBuf = view
			var il uint64
			il, buf = readUvarint(buf)
			times := c.timesBuf[:0]
			for j := 0; j < int(il); j++ {
				var t uint64
				t, buf = readUvarint(buf)
				times = append(times, int(t))
			}
			c.timesBuf = times
			e := n.edges[id]
			c.msg = mca.Message{Sender: e.From, Receiver: e.To, View: view, InfoTimes: times}
		}
		n.queues[id] = q
		n.nonEmpty++
	}
}

// QueueSnapshot captures the queues of a few edges so a delivery can be
// tried on a network in place and rolled back — the explorers' cheap
// alternative to cloning the whole network per branch. A delivery on
// edge e can only touch e itself plus the receiver's outgoing edges
// (re-broadcast or reply), so capturing that set suffices. Snapshots
// copy cell values in both directions and own their backing storage, so
// a reused snapshot never aliases live queues.
type QueueSnapshot struct {
	ids   []int32
	saved [][]qcell
}

// Capture records the current queue contents of the given edges.
// The snapshot may be reused across Capture calls to amortize storage.
func (n *Network) Capture(snap *QueueSnapshot, edges ...Edge) {
	snap.ids = snap.ids[:0]
	for len(snap.saved) < len(edges) {
		snap.saved = append(snap.saved, nil)
	}
	for i, e := range edges {
		id := n.eid(e)
		snap.ids = append(snap.ids, id)
		snap.saved[i] = append(snap.saved[i][:0], n.queues[id]...)
	}
}

// Rollback reinstates the captured queues.
func (n *Network) Rollback(snap *QueueSnapshot) {
	for i, id := range snap.ids {
		q := n.queues[id]
		had, want := len(q) > 0, len(snap.saved[i]) > 0
		n.queues[id] = append(q[:0], snap.saved[i]...)
		if had != want {
			if want {
				n.nonEmpty++
			} else {
				n.nonEmpty--
			}
		}
	}
}

// AsyncOutcome summarizes a randomized asynchronous run.
type AsyncOutcome struct {
	// Converged reports quiescence with agreement.
	Converged bool
	// Deliveries is the number of messages processed.
	Deliveries int
	// Dropped is the number of messages lost to the fault model.
	Dropped int
	// Duplicated is the number of deliveries the fault model forked
	// into an extra in-flight copy (at-least-once delivery).
	Duplicated int
}

// RunAsync drives the agents with a seeded random delivery order until
// quiescence with agreement or until maxDeliveries messages have been
// processed. It is the simulation counterpart of the explorer: the same
// per-edge FIFO semantics and reply-on-disagreement rule, one random
// path instead of all paths. It is one run of a Simulator on a reliable
// network.
func RunAsync(agents []*mca.Agent, g *graph.Graph, seed int64, maxDeliveries int) AsyncOutcome {
	return NewSimulator(g, Faults{}).Run(agents, seed, maxDeliveries)
}
