package explore

import (
	"fmt"

	"repro/internal/mca"
	"repro/internal/netsim"
)

// keyScratch computes 128-bit canonical state keys incrementally. The
// key is one formula over per-component digests:
//
//   - the ranker r: every logical time in the state replaced by its
//     dense rank, built from the union of the components' time spans
//     (least time, greatest time, set of t mod 64), which every agent
//     and queue cell caches. A state whose timestamps span 64 values
//     or more is ranked against the sorted universe instead (wideKeys
//     counts them; none occurs on the scenarios the suite explores);
//   - an agent part: the XOR of every agent's KeyDigest, its content
//     hash mixed with the fold of its rank slots under r;
//   - a network part: every queued message's KeyDigest, its content
//     hash (computed once at send time; messages are immutable) mixed
//     with the fold of its rank slots under r, folded in queue order
//     after each edge's identity and length.
//
// The key mixes the two parts. A component caches its digest under the
// one-word ranker it was made with, and a delivery changes one receiver
// and a few queue cells while almost every child state keeps its
// parent's ranker (98 % of ring-3's keys), so a key re-ranks only what
// the delivery touched. Full state re-serialization is gone from the
// hot path entirely. The reference semantics live in referenceKey (the
// serializer form built on AppendCanonical); crosscheckInterval (the
// explorecheck build tag) arms a periodic self-check that pins the
// cached computation to a cold one and both to the reference.
type keyScratch struct {
	times []int  // the state's timestamps, when its ranker is wide
	ranks []byte // packed rank slots of the component being digested
	buf   []byte // reference-serializer scratch
	// keys counts key computations and wideKeys those that fell back to
	// the sorted universe; both surface in StoreStats.
	keys, wideKeys uint64
	// Crosscheck state (zero-cost when disabled): every interval-th key
	// computation recomputes the key with no caches and with the
	// reference serializer, and checks both the cache coherence and the
	// incremental/reference key bijection seen so far this run.
	interval uint64
	incToRef map[[2]uint64][2]uint64
	refToInc map[[2]uint64][2]uint64
}

// addStats accumulates the scratch's key counters into s.
func (ks *keyScratch) addStats(s *StoreStats) {
	s.Keys += ks.keys
	s.WideKeys += ks.wideKeys
}

// testKeyOverride, when non-nil, post-processes every canonical key —
// a test-only hook used to force distinct states onto the same 128-bit
// key and pin the engines' collision behavior (states sharing a key
// are merged: the first explored representative stands for all of
// them, deterministically). Never set outside tests.
var testKeyOverride func([2]uint64) [2]uint64

// key computes the canonical state key from the components' cached
// spans and digests.
func (ks *keyScratch) key(agents []*mca.Agent, net *netsim.Network) [2]uint64 {
	k, wide := ks.finish(agents, net, false)
	ks.keys++
	if wide {
		ks.wideKeys++
	}
	if ks.interval > 0 && ks.keys%ks.interval == 0 {
		ks.crosscheck(agents, net, k)
	}
	if testKeyOverride != nil {
		k = testKeyOverride(k)
	}
	return k
}

// keyCold recomputes the key reading no cache: every span and every
// component digest is computed afresh — the crosscheck's
// cache-coherence oracle.
func (ks *keyScratch) keyCold(agents []*mca.Agent, net *netsim.Network) [2]uint64 {
	k, _ := ks.finish(agents, net, true)
	return k
}

// finish computes the key of the state, from the caches unless cold;
// wide reports that the timestamps did not fit the one-word ranker.
func (ks *keyScratch) finish(agents []*mca.Agent, net *netsim.Network, cold bool) (k [2]uint64, wide bool) {
	var span mca.TimeSpan
	if cold {
		span = net.TimeSpanUncached()
	} else {
		span = net.TimeSpan()
	}
	for _, a := range agents {
		if cold {
			span = span.Union(a.TimeSpanUncached())
		} else {
			span = span.Union(a.TimeSpan())
		}
	}
	r, ok := span.Ranker()
	if !ok {
		r = mca.SortedRanker(ks.collectTimes(agents, net))
	}
	n := len(agents)
	var c, d [2]uint64
	for _, a := range agents {
		if cold {
			d, ks.ranks = a.KeyDigestUncached(&r, n, ks.ranks)
		} else {
			d, ks.ranks = a.KeyDigest(&r, n, ks.ranks)
		}
		c[0] ^= d[0]
		c[1] ^= d[1]
	}
	if cold {
		d, ks.ranks = net.KeyDigestUncached(&r, n, ks.ranks)
	} else {
		d, ks.ranks = net.KeyDigest(&r, n, ks.ranks)
	}
	return mca.Mix128(c, d), !ok
}

// collectTimes gathers every logical time in the state into a reused
// buffer, for a ranker to be built over.
func (ks *keyScratch) collectTimes(agents []*mca.Agent, net *netsim.Network) []int {
	ks.times = ks.times[:0]
	for _, a := range agents {
		ks.times = a.AppendTimes(ks.times)
	}
	ks.times = net.AppendTimes(ks.times)
	return ks.times
}

// referenceKey is the serializer form of the canonical key: encode the
// ranked state with AppendCanonical/AppendMessageCanonical and hash the
// bytes (two-lane FNV-1a, as the pre-incremental explorer did). It
// distinguishes exactly the states key distinguishes — that equivalence
// is what the crosscheck and the key-equivalence fuzz test pin — and
// survives as the slow-path oracle.
func (ks *keyScratch) referenceKey(agents []*mca.Agent, net *netsim.Network) [2]uint64 {
	r := mca.SortedRanker(ks.collectTimes(agents, net))
	n := len(agents)
	ks.buf = ks.buf[:0]
	for _, a := range agents {
		ks.buf = a.AppendCanonical(ks.buf, r.Rank, n)
	}
	net.ForEachQueued(func(_ netsim.Edge, m mca.Message) {
		ks.buf = mca.AppendMessageCanonical(ks.buf, m, r.Rank, n)
	})
	const (
		offset1 = 14695981039346656037
		offset2 = 1099511628211*31 + 7
		prime   = 1099511628211
	)
	h1, h2 := uint64(offset1), uint64(offset2)
	for _, b := range ks.buf {
		h1 = (h1 ^ uint64(b)) * prime
		h2 = (h2 ^ uint64(b)) * (prime + 2)
	}
	return [2]uint64{h1, h2}
}

// crosscheck validates one state's key three ways: the cached
// incremental key must equal a recomputation that reads no cache
// (cache coherence),
// and the incremental/reference key pair must extend a bijection over
// every state checked so far this run (partition equivalence with the
// serializer). Violations panic — they mean a stale digest cache or a
// divergence between the incremental hasher and the reference
// serializer, either of which would silently corrupt verification.
func (ks *keyScratch) crosscheck(agents []*mca.Agent, net *netsim.Network, k [2]uint64) {
	if cold := ks.keyCold(agents, net); cold != k {
		panic(fmt.Sprintf("explore: incremental key cache incoherent: cached %x, cold %x", k, cold))
	}
	ref := ks.referenceKey(agents, net)
	if ks.incToRef == nil {
		ks.incToRef = make(map[[2]uint64][2]uint64)
		ks.refToInc = make(map[[2]uint64][2]uint64)
	}
	if prev, ok := ks.incToRef[k]; ok && prev != ref {
		panic(fmt.Sprintf("explore: incremental key %x maps to reference keys %x and %x", k, prev, ref))
	}
	if prev, ok := ks.refToInc[ref]; ok && prev != k {
		panic(fmt.Sprintf("explore: reference key %x maps to incremental keys %x and %x", ref, prev, k))
	}
	ks.incToRef[k] = ref
	ks.refToInc[ref] = k
}
