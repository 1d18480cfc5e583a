package explore

import "math"

// StoreKind selects the seen-set representation used by the serial
// checker. The exact store answers membership precisely; the lossy
// modes trade a quantified probability of wrongly answering "seen"
// (pruning a genuinely new state) for a fixed, scope-independent
// memory footprint — SPIN's bitstate hashing and hash compaction.
//
// Soundness under loss is one-sided: a false positive only prunes, so
// lossy modes may under-explore but can never invent a violation —
// every counterexample they report comes from a path that was really
// executed, and the on-path oscillation check stays exact. The price
// is that OK verdicts are probabilistic: Verdict.MissProb bounds the
// per-lookup chance that a state was missed (see docs/PERFORMANCE.md
// for the math and the soundness argument).
type StoreKind int

// Store kinds.
const (
	// StoreExact is the default open-addressing table: membership is
	// precise and Verdict.MissProb is 0.
	StoreExact StoreKind = iota
	// StoreBitstate is SPIN-style bitstate hashing: a fixed bit array
	// probed at bitstateProbes positions per key (double hashing). One
	// bit-ish per state, no key storage at all.
	StoreBitstate
	// StoreHashCompact is hash compaction: a fixed open-addressing
	// table storing a 32-bit fingerprint per state instead of the full
	// key and tree node.
	StoreHashCompact
)

// storeTokens is the scenario-document vocabulary of StoreKind, indexed
// by kind; the exact store is the omitted field.
var storeTokens = [...]string{StoreExact: "", StoreBitstate: "bitstate", StoreHashCompact: "hash-compact"}

// String names the store kind.
func (k StoreKind) String() string {
	switch {
	case k == StoreExact:
		return "exact"
	case k > 0 && int(k) < len(storeTokens):
		return storeTokens[k]
	default:
		return "store(?)"
	}
}

// MarshalText renders the kind as its document token.
func (k StoreKind) MarshalText() ([]byte, error) {
	return tokenOf(storeTokens[:], int(k), "store kind")
}

// UnmarshalText parses a document token.
func (k *StoreKind) UnmarshalText(text []byte) error {
	v, err := parseToken(storeTokens[:], text, "store kind")
	*k = StoreKind(v)
	return err
}

// Default log2 sizes when Options.StoreBits is zero: 2^26 bits (8 MiB)
// for bitstate, 2^22 fingerprint slots (16 MiB) for hash compaction.
const (
	defaultBitstateBits    = 26
	defaultHashCompactBits = 22
	// storeMinBits keeps the bit array at least one word and the
	// fingerprint table at least stateTableMinSlots-ish.
	storeMinBits = 6
)

// Largest accepted Options.StoreBits per lossy store, each a 2 GiB
// allocation: 2^34 bits for bitstate, 2^29 four-byte fingerprints for
// hash compaction. StoreBits goes straight into make, so without a
// ceiling 62 panics (makeslice: len out of range) and 40 asks for
// 128 GiB. The scenario decoder rejects larger values; newSeenSet
// clamps, so no caller can reach make with more.
const (
	MaxBitstateBits    = 34
	MaxHashCompactBits = 29
)

// MaxStoreBits returns the largest accepted Options.StoreBits for the
// store kind. The exact store ignores StoreBits; it gets the larger
// ceiling so that an inert value is still a bounded one.
func MaxStoreBits(k StoreKind) int {
	if k == StoreHashCompact {
		return MaxHashCompactBits
	}
	return MaxBitstateBits
}

// seenSet is the serial checker's membership interface: the exact
// store and both lossy stores implement it, so the DFS hot loop is
// representation-blind.
type seenSet interface {
	// has reports whether k was (possibly falsely, for lossy stores)
	// recorded before.
	has(k [2]uint64) bool
	// add records k.
	add(k [2]uint64)
	// addStats accumulates occupancy/probe counters into s.
	addStats(s *StoreStats)
	// missProb returns a conservative upper bound on the per-lookup
	// false-positive probability at the store's final occupancy (0 for
	// the exact store).
	missProb() float64
}

// newSeenSet builds the seen-set selected by opts (post-defaults).
func newSeenSet(opts Options) seenSet {
	switch opts.Store {
	case StoreBitstate:
		return newBitstateSeen(storeBits(opts, defaultBitstateBits))
	case StoreHashCompact:
		return newHashCompactSeen(storeBits(opts, defaultHashCompactBits))
	default:
		return &exactSeen{}
	}
}

// storeBits resolves Options.StoreBits for a lossy store: 0 or less is
// the store's default, anything else is clamped into
// [storeMinBits, MaxStoreBits].
func storeBits(opts Options, def int) int {
	bits := opts.StoreBits
	if bits <= 0 {
		bits = def
	}
	return min(max(bits, storeMinBits), MaxStoreBits(opts.Store))
}

// exactSeen adapts stateTable to the seenSet interface (presence-only:
// the DFS needs no per-state node).
type exactSeen struct {
	t stateTable
}

func (e *exactSeen) has(k [2]uint64) bool   { return e.t.get(k) != nil }
func (e *exactSeen) add(k [2]uint64)        { e.t.insert(k, visitedMark) }
func (e *exactSeen) addStats(s *StoreStats) { e.t.addStats(s) }
func (e *exactSeen) missProb() float64      { return 0 }

// bitstateSeen is the bitstate store: m = 2^bits bits, k =
// bitstateProbes probe positions per key derived by double hashing
// from the two words of the canonical key. Since the keys are already
// uniform 128-bit hashes, no further mixing is needed; the second word
// is forced odd so the probe stride is invertible modulo the
// power-of-two array size.
type bitstateSeen struct {
	words   []uint64
	mask    uint64 // bit-index mask: 2^bits - 1
	n       int    // states added
	lookups uint64
	probes  uint64
}

// bitstateProbes is the number of bits examined/set per key. Three is
// SPIN's long-standing default ("-k3"): for the under-provisioned
// arrays where bitstate earns its keep, more probes fill the array
// faster than they discriminate.
const bitstateProbes = 3

func newBitstateSeen(bits int) *bitstateSeen {
	return &bitstateSeen{
		words: make([]uint64, 1<<(bits-storeMinBits)),
		mask:  1<<bits - 1,
	}
}

// probe returns the i-th bit index for key k.
func (b *bitstateSeen) probe(k [2]uint64, i uint64) uint64 {
	return (k[0] + i*(k[1]|1)) & b.mask
}

func (b *bitstateSeen) has(k [2]uint64) bool {
	b.lookups++
	for i := uint64(0); i < bitstateProbes; i++ {
		b.probes++
		bit := b.probe(k, i)
		if b.words[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

func (b *bitstateSeen) add(k [2]uint64) {
	b.n++
	for i := uint64(0); i < bitstateProbes; i++ {
		bit := b.probe(k, i)
		b.words[bit>>6] |= 1 << (bit & 63)
	}
}

func (b *bitstateSeen) addStats(s *StoreStats) {
	s.Entries += b.n
	s.Slots += len(b.words) * 64
	s.Lookups += b.lookups
	s.Probes += b.probes
}

// missProb bounds the false-positive probability of one lookup at the
// final occupancy: at most k·n of the m bits are set (union bound over
// insertions), and a false positive requires all k probes of an unseen
// key to land on set bits, so p <= (min(1, k·n/m))^k. Final occupancy
// bounds every earlier lookup's occupancy, so the bound holds
// per-lookup across the whole run.
func (b *bitstateSeen) missProb() float64 {
	m := float64(len(b.words)) * 64
	frac := math.Min(1, float64(bitstateProbes)*float64(b.n)/m)
	return math.Pow(frac, bitstateProbes)
}

// hashCompactSeen is the hash-compaction store: a fixed open-addressing
// table of 32-bit fingerprints (zero means empty). The slot is taken
// from the second key word (like stateTable) and the fingerprint from
// the first, so a false positive needs both an overlapping probe run
// and a 1-in-2^32 fingerprint match. The table never grows — growth
// would need the full keys back — so probe runs are capped and inserts
// into a saturated region are dropped (the state is then simply
// re-explorable, which costs work, never soundness).
type hashCompactSeen struct {
	fps     []uint32
	mask    uint64
	n       int // fingerprints stored
	dropped int // inserts abandoned after hashCompactMaxProbe slots
	lookups uint64
	probes  uint64
}

// hashCompactMaxProbe caps linear-probe runs so a nearly full table
// degrades into re-exploration instead of unbounded scans.
const hashCompactMaxProbe = 64

func newHashCompactSeen(bits int) *hashCompactSeen {
	return &hashCompactSeen{
		fps:  make([]uint32, 1<<bits),
		mask: 1<<bits - 1,
	}
}

func (h *hashCompactSeen) fingerprint(k [2]uint64) uint32 {
	fp := uint32(k[0])
	if fp == 0 {
		fp = 0x9e3779b9 // zero marks an empty slot
	}
	return fp
}

func (h *hashCompactSeen) has(k [2]uint64) bool {
	h.lookups++
	fp := h.fingerprint(k)
	i := k[1] & h.mask
	for p := 0; p < hashCompactMaxProbe; p++ {
		h.probes++
		ex := h.fps[i]
		if ex == 0 {
			return false
		}
		if ex == fp {
			return true
		}
		i = (i + 1) & h.mask
	}
	return false
}

func (h *hashCompactSeen) add(k [2]uint64) {
	fp := h.fingerprint(k)
	i := k[1] & h.mask
	for p := 0; p < hashCompactMaxProbe; p++ {
		ex := h.fps[i]
		if ex == 0 {
			h.fps[i] = fp
			h.n++
			return
		}
		if ex == fp {
			return
		}
		i = (i + 1) & h.mask
	}
	h.dropped++
}

func (h *hashCompactSeen) addStats(s *StoreStats) {
	s.Entries += h.n
	s.Slots += len(h.fps)
	s.Lookups += h.lookups
	s.Probes += h.probes
}

// missProb bounds the per-lookup false-positive probability: a lookup
// examines at most the occupied run from its start slot (capped at
// hashCompactMaxProbe), and each examined fingerprint matches a fresh
// key with probability 2^-32. The expected unsuccessful-search probe
// count in linear probing at load factor a is (1 + 1/(1-a)^2)/2
// (Knuth); the bound multiplies it by the per-slot match probability.
func (h *hashCompactSeen) missProb() float64 {
	a := float64(h.n) / float64(len(h.fps))
	run := float64(hashCompactMaxProbe)
	if a < 1 {
		run = math.Min(run, (1+1/((1-a)*(1-a)))/2)
	}
	return math.Min(1, run/(1<<32))
}
