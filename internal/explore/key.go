package explore

import (
	"fmt"
	"math/bits"

	"repro/internal/mca"
	"repro/internal/netsim"
)

// keyScratch computes 128-bit canonical state keys incrementally. The
// key splits into two parts:
//
//   - a content part — everything except logical times — assembled by
//     XOR from per-component digests: per-agent hashes each agent caches
//     and carries through save and restore (a delivery mutates one
//     receiver, so at most one agent is re-digested per transition, and
//     none when a delivery is rolled back) and per-message hashes
//     computed once at send time by the network (messages are
//     immutable);
//   - a time part — the dense rank of every logical timestamp in the
//     state — which is irreducibly global (one new timestamp can shift
//     every rank) but cheap: one pass collects the timestamps and folds
//     them into a 64-bit set, a second ranks every slot against that
//     word and packs the ranks eight to a fold. A state whose timestamps
//     span 64 values or more is ranked against the sorted universe
//     instead (wideKeys counts them; none occurs on the scenarios the
//     suite explores).
//
// Full state re-serialization is gone from the hot path entirely. The
// reference semantics live in referenceKey (the serializer form built
// on AppendCanonical); crosscheckInterval (the explorecheck build tag)
// arms a periodic self-check that pins the incremental computation to
// it.
type keyScratch struct {
	times []int  // the state's timestamps, then the ranker's if it is wide
	ranks []byte // packed rank slots of the state being keyed
	buf   []byte // reference-serializer scratch
	// keys counts key computations and wideKeys those that fell back to
	// the sorted universe; both surface in StoreStats.
	keys, wideKeys uint64
	// Crosscheck state (zero-cost when disabled): every interval-th key
	// computation recomputes the key with cold caches and the reference
	// serializer, and checks both the cache coherence and the
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

// mix128 finishes the key: each lane avalanches the combined content
// and time words through the splitmix64 finalizer, so the XOR algebra
// of the content part cannot cancel against the time part.
func mix128(c, t [2]uint64) [2]uint64 {
	return [2]uint64{mix64(c[0], t[0]), mix64(c[1], t[1])}
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

// testKeyOverride, when non-nil, post-processes every canonical key —
// a test-only hook used to force distinct states onto the same 128-bit
// key and pin the engines' collision behavior (states sharing a key
// are merged: the first explored representative stands for all of
// them, deterministically). Never set outside tests.
var testKeyOverride func([2]uint64) [2]uint64

// key computes the canonical state key from the agents' cached digests.
func (ks *keyScratch) key(agents []*mca.Agent, net *netsim.Network) [2]uint64 {
	var c [2]uint64
	for _, a := range agents {
		h := a.ContentHash()
		c[0] ^= h[0]
		c[1] ^= h[1]
	}
	k, wide := ks.finish(c, agents, net)
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

// keyCold recomputes the key with no cached agent digests — the
// crosscheck's cache-coherence oracle.
func (ks *keyScratch) keyCold(agents []*mca.Agent, net *netsim.Network) [2]uint64 {
	var c [2]uint64
	for _, a := range agents {
		h := a.ContentHashUncached()
		c[0] ^= h[0]
		c[1] ^= h[1]
	}
	k, _ := ks.finish(c, agents, net)
	return k
}

// finish folds the network content digest and the global time-rank part
// into the combined content hash c; wide reports that the timestamps
// did not fit the one-word ranker.
func (ks *keyScratch) finish(c [2]uint64, agents []*mca.Agent, net *netsim.Network) (k [2]uint64, wide bool) {
	nh := net.ContentHash()
	c[0] ^= nh[0]
	c[1] ^= nh[1]

	r := mca.NewRanker(ks.collectTimes(agents, net))
	n := len(agents)
	ks.ranks = ks.ranks[:0]
	for _, a := range agents {
		ks.ranks = a.AppendTimeRanks(ks.ranks, &r, n)
	}
	ks.ranks = net.AppendTimeRanks(ks.ranks, &r, n)
	t := mca.FoldPacked([2]uint64{0x452821e638d01377, 0xbe5466cf34e90c6c}, ks.ranks)
	return mix128(c, t), r.Wide()
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
// incremental key must equal a cold recomputation (cache coherence),
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
