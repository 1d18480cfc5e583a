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

// qcell is one queued message — its payload only: its sender and
// receiver are its edge's — plus what the explorers' canonical keys
// read of it: its content digest, computed once at send time (messages
// are immutable) so that keys never re-serialize queue contents, the
// span of its timestamps, computed when a key first asks, and its key
// digest under the ranker of the last key it took part in. All of it
// travels with the cell by value: through delivery, Capture and
// Rollback, and clones, which copy 120 bytes a cell.
type qcell struct {
	view  []mca.BidInfo
	times []int
	h     [2]uint64
	span  mca.TimeSpan // empty until a key asks, or when the payload has no times
	key   mca.KeyCache
}

// payload returns the cell's message without its endpoints, for the
// mca methods that read only a message's view and times.
func (c *qcell) payload() mca.Message { return mca.Message{View: c.view, InfoTimes: c.times} }

// message returns the cell's message on edge e.
func (c *qcell) message(e Edge) mca.Message {
	return mca.Message{Sender: e.From, Receiver: e.To, View: c.view, InfoTimes: c.times}
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
	// decViews and decTimes back the messages DecodeState builds, and
	// the next DecodeState rewinds them. Live messages share their View
	// and InfoTimes slices across a broadcast fan-out and across clones,
	// so a decoder never writes into a message's own backing; a scratch
	// network decoded repeatedly reuses these instead.
	decViews []mca.BidInfo
	decTimes []int
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
		q[len(q)-1] = qcell{view: m.View, times: m.InfoTimes, h: h}
		return
	}
	n.queues[id] = append(q, qcell{view: m.View, times: m.InfoTimes, h: h})
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
	m := q[i].message(n.edges[id])
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
	id := n.eid(e)
	q := n.queues[id]
	if len(q) == 0 {
		return mca.Message{}, false
	}
	return q[0].message(n.edges[id]), true
}

// ForEachQueued calls f for every in-transit message in deterministic
// order: edges sorted by (From, To), queue positions head first. The
// explorers' reference key serializer walks queue contents this way.
func (n *Network) ForEachQueued(f func(e Edge, m mca.Message)) {
	for i, q := range n.queues {
		for k := range q {
			f(n.edges[i], q[k].message(n.edges[i]))
		}
	}
}

// AppendTimes appends every timestamp occurring in queued messages to
// ts, for the explorers' dense time ranking.
func (n *Network) AppendTimes(ts []int) []int {
	for _, q := range n.queues {
		for k := range q {
			m := q[k].payload()
			ts = m.AppendTimes(ts)
		}
	}
	return ts
}

// TimeSpan returns the span of every timestamp occurring in queued
// messages, the ones AppendTimes lists. A cell keeps its message's span
// from the first key that asks.
func (n *Network) TimeSpan() mca.TimeSpan { return n.timeSpan(true) }

// TimeSpanUncached recomputes the span TimeSpan returns, reading and
// writing no cell's span.
func (n *Network) TimeSpanUncached() mca.TimeSpan { return n.timeSpan(false) }

func (n *Network) timeSpan(cached bool) mca.TimeSpan {
	var s mca.TimeSpan
	for _, q := range n.queues {
		for k := range q {
			c := &q[k]
			span := c.span
			if !cached || span == (mca.TimeSpan{}) {
				m := c.payload()
				span = m.TimeSpan()
				if cached {
					c.span = span
				}
			}
			s = s.Union(span)
		}
	}
	return s
}

// KeyDigest returns the network's part of a canonical state key for a
// system of nAgents agents under r, the state's ranker: the key digest
// of every queued message (mca.Message.KeyDigest), folded in queue
// order — edges sorted by (From, To), head first — after each edge's
// identity and queue length. Together with the agents' key digests it
// carries exactly what the reference serializer encodes. A cell keeps
// its digest under a one-word r, so a key whose ranker did not move
// re-ranks only the cells a delivery wrote. buf is scratch for packed
// rank slots and comes back grown.
//
// This pass and TimeSpan sit inside every canonical key, so they index
// the queues and hand *Message down: ranging over qcell values or
// passing a Message by value copies the whole cell or message.
func (n *Network) KeyDigest(r *mca.Ranker, nAgents int, buf []byte) ([2]uint64, []byte) {
	return n.keyDigest(r, nAgents, buf, true)
}

// KeyDigestUncached recomputes the digest KeyDigest returns, reading
// and writing no cell's key cache.
func (n *Network) KeyDigestUncached(r *mca.Ranker, nAgents int, buf []byte) ([2]uint64, []byte) {
	return n.keyDigest(r, nAgents, buf, false)
}

func (n *Network) keyDigest(r *mca.Ranker, nAgents int, buf []byte, cached bool) ([2]uint64, []byte) {
	h0, h1 := uint64(0x243f6a8885a308d3), uint64(0x13198a2e03707344)
	for i, q := range n.queues {
		if len(q) == 0 {
			continue
		}
		h0, h1 = mca.FoldHash(h0, h1, uint64(i)<<16|uint64(len(q)))
		for k := range q {
			c := &q[k]
			d, ok := c.key.Get(r)
			if !ok || !cached {
				m := c.payload()
				d, buf = m.KeyDigest(c.h, r, nAgents, buf)
				if cached {
					c.key.Put(r, d)
				}
			}
			h0, h1 = mca.FoldHash(h0, h1, d[0])
			h0, h1 = mca.FoldHash(h0, h1, d[1])
		}
	}
	return [2]uint64{h0, h1}, buf
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
	queues, views, times := dst.queues, dst.decViews, dst.decTimes
	*dst = *n
	// Decode buffers are per-network: sharing them between the clone
	// and the source would let two decoders corrupt each other's cells.
	dst.queues, dst.decViews, dst.decTimes = queues, views, times
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
			buf = appendUvarint(buf, uint64(len(c.view)))
			for _, bi := range c.view {
				buf = appendUvarint(buf, zig(bi.Bid))
				buf = appendUvarint(buf, zig(int64(bi.Winner)))
				buf = appendUvarint(buf, uint64(bi.Time))
			}
			buf = appendUvarint(buf, uint64(len(c.times)))
			for _, t := range c.times {
				buf = appendUvarint(buf, uint64(t))
			}
		}
	}
	return append(buf, 0)
}

// DecodeState restores queue contents from an AppendState encoding,
// returning the unconsumed remainder of buf. The network must have the
// same shape (graph and configuration) as the encoder; its queue backing
// arrays and its decode buffers are reused, so a scratch network decoded
// repeatedly reaches a steady state with no allocation. Every decoded
// cell starts with empty key caches, and the messages of the previous
// decode die with it: their storage is rewritten. A section repeating
// an edge replaces the earlier one, and an empty section leaves its
// edge empty. DecodeState trusts its input: a truncated buffer or an
// edge past the graph's panics.
func (n *Network) DecodeState(buf []byte) []byte {
	for i := range n.queues {
		n.queues[i] = n.queues[i][:0]
	}
	views, times := n.decViews[:0], n.decTimes[:0]
	var u uint64
	for {
		u, buf = readUvarint(buf)
		if u == 0 {
			break
		}
		id := u - 1
		var cnt uint64
		cnt, buf = readUvarint(buf)
		q := n.queues[id][:0]
		for ; cnt > 0; cnt-- {
			var c qcell
			c.h[0], buf = readUvarint(buf)
			c.h[1], buf = readUvarint(buf)
			var l uint64
			l, buf = readUvarint(buf)
			v0 := len(views)
			for ; l > 0; l-- {
				var bid, win, tm uint64
				bid, buf = readUvarint(buf)
				win, buf = readUvarint(buf)
				tm, buf = readUvarint(buf)
				views = append(views, mca.BidInfo{
					Bid: unzig(bid), Winner: mca.AgentID(unzig(win)), Time: int(tm),
				})
			}
			c.view = views[v0:len(views):len(views)]
			l, buf = readUvarint(buf)
			t0 := len(times)
			for ; l > 0; l-- {
				var t uint64
				t, buf = readUvarint(buf)
				times = append(times, int(t))
			}
			c.times = times[t0:len(times):len(times)]
			q = append(q, c)
		}
		n.queues[id] = q
	}
	n.decViews, n.decTimes = views, times
	n.nonEmpty = 0
	for _, q := range n.queues {
		if len(q) > 0 {
			n.nonEmpty++
		}
	}
	return buf
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
