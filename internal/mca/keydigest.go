package mca

import "math/bits"

// TimeSpan summarizes a set of timestamps for the one-word Ranker: the
// least and the greatest, and bit t mod 64 for each t. Spans combine by
// Union, so a state's span is the union of its components' spans, and a
// component that has not changed can keep its own. The zero value is the
// empty span.
type TimeSpan struct {
	lo, hi int
	set    uint64 // zero only for the empty span
}

// add puts t in the span.
func (s *TimeSpan) add(t int) {
	if s.set == 0 {
		s.lo, s.hi = t, t
	} else {
		s.lo, s.hi = min(s.lo, t), max(s.hi, t)
	}
	s.set |= 1 << (uint(t) & 63)
}

// Union returns the span of both sets of timestamps.
func (s TimeSpan) Union(o TimeSpan) TimeSpan {
	if s.set == 0 {
		return o
	}
	if o.set == 0 {
		return s
	}
	return TimeSpan{lo: min(s.lo, o.lo), hi: max(s.hi, o.hi), set: s.set | o.set}
}

// Ranker returns the one-word ranker over the span's timestamps, and
// false when there is none: the span is empty or spreads over 64
// values or more. While hi-lo is under 64 no two timestamps share a
// bit of set, and rotating it right by lo mod 64 puts bit t-lo where t
// is. The spread is compared unsigned so that no pair of times, however
// far apart, wraps into the one-word form: a decoded state is outside
// input.
func (s TimeSpan) Ranker() (Ranker, bool) {
	if s.set == 0 || uint64(s.hi)-uint64(s.lo) >= 64 {
		return Ranker{}, false
	}
	return Ranker{top: s.lo + 64, word: bits.RotateLeft64(s.set, -(s.lo & 63))}, true
}

// TimeSpan returns the span of the agent's timestamps, the ones
// AppendTimes lists. It is cached like the agent's key digest.
func (a *Agent) TimeSpan() TimeSpan {
	if a.key.span.set == 0 {
		a.key.span = a.TimeSpanUncached()
	}
	return a.key.span
}

// TimeSpanUncached recomputes the span TimeSpan caches.
func (a *Agent) TimeSpanUncached() TimeSpan {
	var s TimeSpan
	for j := range a.view {
		s.add(a.view[j].Time)
	}
	for j := range a.block {
		s.add(a.block[j].Time)
	}
	for _, t := range a.infoTime {
		if t != 0 {
			s.add(t)
		}
	}
	s.add(a.clock)
	return s
}

// TimeSpan returns the span of the message's timestamps, the ones
// AppendTimes lists.
func (m *Message) TimeSpan() TimeSpan {
	var s TimeSpan
	for j := range m.View {
		s.add(m.View[j].Time)
	}
	for _, t := range m.InfoTimes {
		if t != 0 {
			s.add(t)
		}
	}
	return s
}

// KeyCache holds one component's key digest together with the one-word
// ranker it was made under. Two rankers with the same word and top rank
// every time alike, so the digest stands for as long as the component
// does not change and the state's ranker stays the same. A digest made
// under the sorted form is never cached. The zero value is empty.
type KeyCache struct {
	word uint64
	top  int
	d    [2]uint64
}

// Get returns the digest cached under r, if there is one.
func (c *KeyCache) Get(r *Ranker) ([2]uint64, bool) {
	return c.d, r.word != 0 && c.word == r.word && c.top == r.top
}

// Put caches d as the digest under r, unless r is the sorted form.
func (c *KeyCache) Put(r *Ranker, d [2]uint64) {
	if r.word != 0 {
		*c = KeyCache{word: r.word, top: r.top, d: d}
	}
}

// Seeds of the time-rank folds of the two kinds of key component.
var (
	agentTimeSeed   = [2]uint64{0x452821e638d01377, 0xbe5466cf34e90c6c}
	messageTimeSeed = [2]uint64{0xc0ac29b7c97c50dd, 0x3f84d5b5b5470917}
)

// KeyDigest returns the agent's component of a canonical state key for
// a system of n agents: its ContentHash mixed with the fold of its
// time-rank slots under r, the state's ranker. buf is scratch for the
// packed slots and comes back grown. The digest is cached under a
// one-word r, so that a key whose ranker did not move re-ranks only the
// agents that changed.
func (a *Agent) KeyDigest(r *Ranker, n int, buf []byte) ([2]uint64, []byte) {
	if d, ok := a.key.digest.Get(r); ok {
		return d, buf
	}
	d, buf := a.keyDigest(a.ContentHash(), r, n, buf)
	a.key.digest.Put(r, d)
	return d, buf
}

// KeyDigestUncached recomputes the digest KeyDigest caches, the content
// hash included, reading and writing no cache.
func (a *Agent) KeyDigestUncached(r *Ranker, n int, buf []byte) ([2]uint64, []byte) {
	return a.keyDigest(a.ContentHashUncached(), r, n, buf)
}

func (a *Agent) keyDigest(content [2]uint64, r *Ranker, n int, buf []byte) ([2]uint64, []byte) {
	buf = a.AppendTimeRanks(buf[:0], r, n)
	return Mix128(content, FoldPacked(agentTimeSeed, buf)), buf
}

// KeyDigest returns a queued message's component of a canonical state
// key for a system of n agents: its content hash h (MessageContentHash)
// mixed with the fold of its time-rank slots under r. buf is scratch for
// the packed slots and comes back grown. The caller binds the message's
// edge and queue position.
func (m *Message) KeyDigest(h [2]uint64, r *Ranker, n int, buf []byte) ([2]uint64, []byte) {
	buf = m.AppendTimeRanks(buf[:0], r, n)
	return Mix128(h, FoldPacked(messageTimeSeed, buf)), buf
}

// Mix128 combines two 128-bit digests lane by lane: each lane
// avalanches a's word and b's rotated word through the splitmix64
// finalizer, so neither the XOR algebra a component sum is built with
// nor the folds can cancel one digest against the other.
func Mix128(a, b [2]uint64) [2]uint64 {
	return [2]uint64{mix64(a[0], b[0]), mix64(a[1], b[1])}
}

func mix64(a, b uint64) uint64 {
	x := a ^ bits.RotateLeft64(b, 32)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
