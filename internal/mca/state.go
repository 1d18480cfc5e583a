package mca

import (
	"encoding/binary"
	"math/bits"
	"sort"
)

// appendVarint appends a zig-zag-free signed int encoding (values here
// are small and non-negative after ranking; negative ids use a bias).
func appendVarint(buf []byte, v int64) []byte {
	u := uint64(v+1) << 1 // bias -1 (NoAgent) to non-negative
	for u >= 0x80 {
		buf = append(buf, byte(u)|0x80)
		u >>= 7
	}
	return append(buf, byte(u))
}

// AppendCanonical appends a compact deterministic binary encoding of the
// agent state with every timestamp passed through rank, for a system of
// n agents (the information-timestamp vector is encoded as n fixed
// slots). This is the reference serializer for the explorer's canonical
// keys: the incremental hasher (ContentHash + AppendTimeRanks) must
// distinguish exactly the states this encoding distinguishes, and the
// explore package pins that equivalence with a cross-check flag and a
// fuzz test.
//
// Timestamp slots that double as presence markers (block entries,
// information timestamps) encode 0 for "absent" and 1+rank(t) when
// present; stored information times are always positive, so the two
// ranges cannot collide.
func (a *Agent) AppendCanonical(buf []byte, rank func(int) int, n int) []byte {
	buf = appendVarint(buf, int64(a.id))
	for _, bi := range a.view {
		buf = appendVarint(buf, bi.Bid)
		buf = appendVarint(buf, int64(bi.Winner))
		buf = appendVarint(buf, int64(rank(bi.Time)))
	}
	buf = appendVarint(buf, int64(len(a.bundle)))
	for _, j := range a.bundle {
		buf = appendVarint(buf, int64(j))
	}
	for j, bl := range a.blocked {
		if bl {
			bi := a.block[j]
			buf = appendVarint(buf, bi.Bid)
			buf = appendVarint(buf, int64(bi.Winner))
			buf = appendVarint(buf, int64(1+rank(bi.Time)))
		} else {
			buf = appendVarint(buf, 0)
		}
	}
	buf = appendVarint(buf, int64(rank(a.clock)))
	for k := 0; k < n; k++ {
		if t := infoAt(a.infoTime, AgentID(k)); t != 0 {
			buf = appendVarint(buf, int64(1+rank(t)))
		} else {
			buf = appendVarint(buf, 0)
		}
	}
	return buf
}

// AppendMessageCanonical appends a compact deterministic binary encoding
// of a message with timestamps ranked, for a system of n agents.
func AppendMessageCanonical(buf []byte, m Message, rank func(int) int, n int) []byte {
	buf = appendVarint(buf, int64(m.Sender))
	buf = appendVarint(buf, int64(m.Receiver))
	for _, bi := range m.View {
		buf = appendVarint(buf, bi.Bid)
		buf = appendVarint(buf, int64(bi.Winner))
		buf = appendVarint(buf, int64(rank(bi.Time)))
	}
	for k := 0; k < n; k++ {
		if t := infoAt(m.InfoTimes, AgentID(k)); t != 0 {
			buf = appendVarint(buf, int64(1+rank(t)))
		} else {
			buf = appendVarint(buf, 0)
		}
	}
	return appendVarint(buf, -1)
}

// AgentState is a deep snapshot of an agent's mutable state, used by the
// exhaustive explorer to branch over message interleavings.
type AgentState struct {
	View    []BidInfo
	Bundle  []ItemID
	Blocked []bool
	Block   []BidInfo
	Clock   int
	// InfoTime is the dense information-timestamp vector (indexed by
	// AgentID; missing tail entries mean 0).
	InfoTime []int
	// Digest is the agent's ContentHash if it had one when it was saved,
	// else zero; RestoreState hands it back with the state. It covers
	// every field above except the times, so a caller that edits a saved
	// bid, winner, bundle or block mark must zero it.
	Digest [2]uint64
	// key is the agent's time-dependent key cache when it was saved. Only
	// Undo hands it back: RestoreState cannot know that the times were
	// left alone.
	key agentKeyCache
}

// SaveState captures the agent's mutable state.
func (a *Agent) SaveState() AgentState {
	var s AgentState
	a.SaveStateInto(&s)
	return s
}

// SaveStateInto captures the agent's mutable state into s, reusing s's
// existing storage — the allocation-free form the explorers use on
// their per-branch hot path.
func (a *Agent) SaveStateInto(s *AgentState) {
	s.View = append(s.View[:0], a.view...)
	s.Bundle = append(s.Bundle[:0], a.bundle...)
	s.Blocked = append(s.Blocked[:0], a.blocked...)
	s.Block = append(s.Block[:0], a.block...)
	s.Clock = a.clock
	s.InfoTime = append(s.InfoTime[:0], a.infoTime...)
	s.Digest = a.digest
	s.key = a.key
}

// RestoreState reinstates a previously saved state. The agent's own
// storage is reused (the explorers restore millions of times on their
// hot path); the AgentState is not aliased afterwards. The content
// digest comes back with the state, and the time-dependent key cache is
// dropped: a caller may have edited the saved times.
func (a *Agent) RestoreState(s AgentState) {
	a.restore(&s)
	a.key = agentKeyCache{}
}

// Undo reinstates a state SaveStateInto captured from this agent and
// nobody edited since, key cache included: the explorers' rollback of a
// delivery, which would otherwise make the next key re-rank an agent
// whose times are back where they were. Any other restore is
// RestoreState's.
func (a *Agent) Undo(s *AgentState) {
	a.restore(s)
	a.key = s.key
}

func (a *Agent) restore(s *AgentState) {
	a.digest = s.Digest
	copy(a.view, s.View)
	a.bundle = append(a.bundle[:0], s.Bundle...)
	copy(a.blocked, s.Blocked)
	copy(a.block, s.Block)
	a.clock = s.Clock
	a.infoTime = append(a.infoTime[:0], s.InfoTime...)
}

// AppendState appends a compact binary encoding of the agent's full
// mutable state (absolute timestamps, unlike AppendCanonical) to buf.
// DecodeState reverses it. The parallel explorer stores frontier states
// this way: one pointer-free byte slice per global state instead of a
// tree of slices, which the garbage collector never has to scan.
func (a *Agent) AppendState(buf []byte) []byte {
	for _, bi := range a.view {
		buf = appendVarint(buf, bi.Bid)
		buf = appendVarint(buf, int64(bi.Winner))
		buf = appendVarint(buf, int64(bi.Time))
	}
	buf = appendVarint(buf, int64(len(a.bundle)))
	for _, j := range a.bundle {
		buf = appendVarint(buf, int64(j))
	}
	for j, bl := range a.blocked {
		if bl {
			bi := a.block[j]
			buf = appendVarint(buf, int64(j))
			buf = appendVarint(buf, bi.Bid)
			buf = appendVarint(buf, int64(bi.Winner))
			buf = appendVarint(buf, int64(bi.Time))
		}
	}
	buf = appendVarint(buf, -1) // blocked-section terminator
	buf = appendVarint(buf, int64(a.clock))
	buf = appendVarint(buf, int64(len(a.infoTime)))
	for _, t := range a.infoTime {
		buf = appendVarint(buf, int64(t))
	}
	return buf
}

// readVarint reverses appendVarint.
func readVarint(buf []byte) (int64, []byte) {
	var u uint64
	var shift uint
	for i, b := range buf {
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return int64(u>>1) - 1, buf[i+1:]
		}
		shift += 7
	}
	panic("mca: truncated state encoding")
}

// DecodeState restores the agent's mutable state from an AppendState
// encoding, returning the unconsumed remainder of buf.
func (a *Agent) DecodeState(buf []byte) []byte {
	a.digest = [2]uint64{}
	a.key = agentKeyCache{}
	var v int64
	for j := range a.view {
		bi := &a.view[j]
		bi.Bid, buf = readVarint(buf)
		v, buf = readVarint(buf)
		bi.Winner = AgentID(v)
		v, buf = readVarint(buf)
		bi.Time = int(v)
	}
	v, buf = readVarint(buf)
	a.bundle = a.bundle[:0]
	for i := int64(0); i < v; i++ {
		var j int64
		j, buf = readVarint(buf)
		a.bundle = append(a.bundle, ItemID(j))
	}
	for j := range a.blocked {
		a.blocked[j] = false
		a.block[j] = BidInfo{}
	}
	for {
		v, buf = readVarint(buf)
		if v < 0 {
			break
		}
		bi := &a.block[v]
		a.blocked[v] = true
		bi.Bid, buf = readVarint(buf)
		var w int64
		w, buf = readVarint(buf)
		bi.Winner = AgentID(w)
		w, buf = readVarint(buf)
		bi.Time = int(w)
	}
	v, buf = readVarint(buf)
	a.clock = int(v)
	v, buf = readVarint(buf)
	a.infoTime = a.infoTime[:0]
	for i := int64(0); i < v; i++ {
		var t int64
		t, buf = readVarint(buf)
		a.infoTime = append(a.infoTime, int(t))
	}
	return buf
}

// Items returns the number of items the agent bids on.
func (a *Agent) Items() int { return a.items }

// AppendTimes appends every logical timestamp in the agent's state to
// ts. The explorer builds a dense rank over the combined list: two
// global states that differ only by a time-order-preserving relabeling
// of clocks are behaviorally equivalent, so hashing the ranked form
// turns the unbounded clock space into a finite quotient.
func (a *Agent) AppendTimes(ts []int) []int {
	for _, bi := range a.view {
		ts = append(ts, bi.Time)
	}
	for _, bi := range a.block {
		ts = append(ts, bi.Time)
	}
	for _, t := range a.infoTime {
		if t != 0 {
			ts = append(ts, t)
		}
	}
	return append(ts, a.clock)
}

// AppendTimes appends every timestamp in the message to ts.
func (m *Message) AppendTimes(ts []int) []int {
	for j := range m.View {
		ts = append(ts, m.View[j].Time)
	}
	for _, t := range m.InfoTimes {
		if t != 0 {
			ts = append(ts, t)
		}
	}
	return ts
}

// Ranker maps absolute logical times to their dense rank among the
// distinct timestamps of a state — the canonical quotient of the
// explorers' state keys. It has two forms that return the same rank
// numbers. The one-word form holds a 64-bit set of the timestamps and
// ranks by a shift and a population count; it serves while the
// timestamps span fewer than 64 values, which Lamport clocks in one
// global state do (docs/PERFORMANCE.md has the measured spreads). The
// sorted form holds the sorted, deduplicated universe and ranks by
// binary search; it serves any set of times, and is the reference
// serializer's ranker. The concrete struct (instead of a closure) keeps
// the per-slot calls on the key hot path allocation-free and inlinable;
// the slot walks take it by pointer because an inlined call on a
// five-word value copies it per slot.
type Ranker struct {
	// One-word form: bit t-min of word is set for every timestamp t,
	// and top is min+64. The smallest timestamp sets bit 0, so a zero
	// word marks the sorted form.
	word uint64
	top  int
	uniq []int
}

// NewRanker returns the ranker over times, every timestamp of one state
// in any order (AppendTimes output): the one-word form if their
// TimeSpan can hold them, else the sorted form, which reorders times
// and keeps it.
func NewRanker(times []int) Ranker {
	var s TimeSpan
	for _, t := range times {
		s.add(t)
	}
	if r, ok := s.Ranker(); ok {
		return r
	}
	return SortedRanker(times)
}

// SortedRanker returns the sorted form of the ranker over times, which
// it sorts and deduplicates in place and keeps.
func SortedRanker(times []int) Ranker {
	sort.Ints(times)
	uniq := times[:0]
	for i, t := range times {
		if i == 0 || t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	return Ranker{uniq: uniq}
}

// Wide reports the sorted form.
func (r *Ranker) Wide() bool { return r.word == 0 }

// Rank returns the dense rank of t, which must be a member: the number
// of members below it. In the one-word form those are the t-min low
// bits of word, and a left shift by top-t = 64-(t-min) drops every
// other bit. The sorted search sits in its own function so that this
// one stays within the inlining budget.
func (r *Ranker) Rank(t int) int {
	if r.word == 0 {
		return rankSorted(r.uniq, t)
	}
	return bits.OnesCount64(r.word << uint(r.top-t))
}

func rankSorted(uniq []int, t int) int { return sort.SearchInts(uniq, t) }

// Canonical-key hashing: 128 bits as two independently seeded 64-bit
// lanes, folded one word at a time. Agent and message content hashes
// are XOR-combined across components by the explorers, so each
// component binds its identity (agent id, edge, queue position) into
// its own digest.
const (
	hashMul1 = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	hashMul2 = 0xc2b2ae3d27d4eb4f // xxhash PRIME64_2, odd
)

// FoldHash mixes one 64-bit word into a two-lane hash state. The lanes
// are two scalars, not a [2]uint64, so that a fold loop keeps them in
// registers: the compiler leaves an array of two words in memory, and
// every fold then waits on a store and a load.
func FoldHash(h0, h1, v uint64) (uint64, uint64) {
	return bits.RotateLeft64(h0^v, 27) * hashMul1, bits.RotateLeft64(h1^v, 31) * hashMul2
}

// ContentHash digests the agent's timestamp-free content: identity,
// view bids and winners, bundle, and outbid bookkeeping. Together with
// AppendTimeRanks this carries exactly the information AppendCanonical
// serializes, split so that the content half can travel with the agent:
// the digest is computed on first use, dropped by every entry point
// that mutates the agent, and copied by SaveStateInto, RestoreState and
// Clone — so an explorer that rolls a delivery back gets the receiver's
// digest back with its state, and re-digests only what a delivery
// actually changed.
func (a *Agent) ContentHash() [2]uint64 {
	if a.digest == ([2]uint64{}) {
		a.digest = a.ContentHashUncached()
	}
	return a.digest
}

// ContentHashUncached recomputes the digest ContentHash caches — the
// explorers' crosscheck compares the two to catch a stale cache.
func (a *Agent) ContentHashUncached() [2]uint64 {
	h0, h1 := uint64(a.id)+1, ^uint64(a.id)
	for j := range a.view {
		h0, h1 = FoldHash(h0, h1, uint64(a.view[j].Bid))
		h0, h1 = FoldHash(h0, h1, uint64(a.view[j].Winner))
	}
	h0, h1 = FoldHash(h0, h1, uint64(len(a.bundle)))
	for _, j := range a.bundle {
		h0, h1 = FoldHash(h0, h1, uint64(j))
	}
	for j, bl := range a.blocked {
		if bl {
			h0, h1 = FoldHash(h0, h1, uint64(a.block[j].Bid))
			h0, h1 = FoldHash(h0, h1, uint64(a.block[j].Winner)+3)
		} else {
			h0, h1 = FoldHash(h0, h1, 1)
		}
	}
	return [2]uint64{h0, h1}
}

// MessageContentHash digests a message's timestamp-free payload. The
// sender and receiver are deliberately excluded: a queued message's
// endpoints are its edge's endpoints, and the network binds the edge
// identity when folding queue contents into a state key — which lets a
// broadcast compute one payload digest shared by every receiver. The
// network computes it once at send time (messages are immutable), so
// canonical keys never re-serialize queue contents.
func MessageContentHash(m Message) [2]uint64 {
	h0, h1 := uint64(0x9e3779b97f4a7c15), uint64(0x2545f4914f6cdd1d)
	for _, bi := range m.View {
		h0, h1 = FoldHash(h0, h1, uint64(bi.Bid))
		h0, h1 = FoldHash(h0, h1, uint64(bi.Winner))
	}
	return [2]uint64{h0, h1}
}

// appendRankSlot appends one time-rank slot: a byte, or 0xff and eight
// bytes for the values a byte cannot hold (a state with 255 or more
// distinct timestamps), so the encoding stays prefix-free whatever the
// size of the universe.
func appendRankSlot(buf []byte, v int) []byte {
	if v < 0xff {
		return append(buf, byte(v))
	}
	return binary.LittleEndian.AppendUint64(append(buf, 0xff), uint64(v))
}

// AppendTimeRanks appends the agent's timestamp slots, ranked by r, in
// a fixed slot order, for a system of n agents. Presence-marking slots
// (block entries, information times) hold 0 when absent and 1+rank when
// present — the values AppendCanonical serializes, packed so that
// FoldPacked consumes eight slots per multiply.
func (a *Agent) AppendTimeRanks(buf []byte, r *Ranker, n int) []byte {
	for j := range a.view {
		buf = appendRankSlot(buf, r.Rank(a.view[j].Time))
	}
	for j, bl := range a.blocked {
		if bl {
			buf = appendRankSlot(buf, 1+r.Rank(a.block[j].Time))
		} else {
			buf = append(buf, 0)
		}
	}
	buf = appendRankSlot(buf, r.Rank(a.clock))
	return appendInfoRanks(buf, a.infoTime, r, n)
}

// AppendTimeRanks appends the message's timestamp slots, ranked by r,
// in a fixed slot order, for a system of n agents.
func (m *Message) AppendTimeRanks(buf []byte, r *Ranker, n int) []byte {
	for j := range m.View {
		buf = appendRankSlot(buf, r.Rank(m.View[j].Time))
	}
	return appendInfoRanks(buf, m.InfoTimes, r, n)
}

// appendInfoRanks appends the n slots of an information-time vector.
func appendInfoRanks(buf []byte, times []int, r *Ranker, n int) []byte {
	for k := 0; k < n; k++ {
		if t := infoAt(times, AgentID(k)); t != 0 {
			buf = appendRankSlot(buf, 1+r.Rank(t))
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// FoldPacked folds packed rank slots into h eight bytes to the word,
// and then their count: the last word is zero-padded, which the count
// tells apart from slots that are zero.
func FoldPacked(h [2]uint64, packed []byte) [2]uint64 {
	h0, h1 := h[0], h[1]
	b := packed
	for ; len(b) >= 8; b = b[8:] {
		h0, h1 = FoldHash(h0, h1, binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var last uint64
		for i, c := range b {
			last |= uint64(c) << (8 * i)
		}
		h0, h1 = FoldHash(h0, h1, last)
	}
	h0, h1 = FoldHash(h0, h1, uint64(len(packed)))
	return [2]uint64{h0, h1}
}
