package explore

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
)

// shadowSeen wraps a lossy store with an exact reference, counting
// real false positives ("seen" for a key the exact store has never
// recorded) on the actual key stream of a run. Answers come from the
// lossy store, so the run behaves exactly like a production lossy run.
type shadowSeen struct {
	lossy    seenSet
	exact    exactSeen
	lookups  int
	falsePos int
}

func (s *shadowSeen) has(k [2]uint64) bool {
	s.lookups++
	got := s.lossy.has(k)
	if got && !s.exact.has(k) {
		s.falsePos++
	}
	return got
}

func (s *shadowSeen) add(k [2]uint64) {
	s.lossy.add(k)
	s.exact.add(k)
}

func (s *shadowSeen) addStats(st *StoreStats) { s.lossy.addStats(st) }
func (s *shadowSeen) missProb() float64       { return s.lossy.missProb() }

// storeCorpus builds a deterministic scenario corpus: seeded random
// base valuations over two- and three-agent complete graphs, the same
// population the serial/parallel agreement property tests draw from.
// Everything downstream is deterministic in these inputs, so the
// statistical assertions cannot flake.
func storeCorpus() []struct {
	mk func() []*mca.Agent
	g  *graph.Graph
} {
	rng := rand.New(rand.NewSource(417))
	var corpus []struct {
		mk func() []*mca.Agent
		g  *graph.Graph
	}
	for i := 0; i < 12; i++ {
		agents := 2 + i%2
		items := 2
		bases := make([][]int64, agents)
		for a := range bases {
			bases[a] = make([]int64, items)
			for j := range bases[a] {
				bases[a][j] = int64(rng.Intn(30))
			}
		}
		util := mca.Utility(mca.FlatUtility{})
		if i%3 == 1 {
			util = mca.SubmodularResidual{}
		}
		release := i%4 == 0
		corpus = append(corpus, struct {
			mk func() []*mca.Agent
			g  *graph.Graph
		}{
			mk: func() []*mca.Agent { return agentsWithBases(bases, honestPolicy(items, util, release)) },
			g:  graph.Complete(agents),
		})
	}
	return corpus
}

// The headline statistical claim: over the whole corpus, the observed
// false-"seen" rate of the bitstate store — measured against an exact
// shadow store on the real key stream — stays within the MissProb
// bound each run reports. The store is deliberately under-provisioned
// (2^13 bits) so occupancy, and therefore the bound, is meaningfully
// above zero.
func TestBitstateFalseMissRateWithinReportedBound(t *testing.T) {
	for i, c := range storeCorpus() {
		var shadow *shadowSeen
		testSeenWrap = func(s seenSet) seenSet {
			shadow = &shadowSeen{lossy: s}
			return shadow
		}
		v := Check(c.mk(), c.g, Options{Store: StoreBitstate, StoreBits: 13})
		testSeenWrap = nil
		if shadow == nil {
			t.Fatalf("corpus[%d]: seen-set hook never ran", i)
		}
		if v.MissProb <= 0 || v.MissProb > 1 {
			t.Fatalf("corpus[%d]: reported MissProb %v outside (0, 1]", i, v.MissProb)
		}
		if shadow.lookups == 0 {
			t.Fatalf("corpus[%d]: no lookups recorded", i)
		}
		rate := float64(shadow.falsePos) / float64(shadow.lookups)
		if rate > v.MissProb {
			t.Fatalf("corpus[%d]: observed false-seen rate %v (%d/%d) exceeds reported bound %v",
				i, rate, shadow.falsePos, shadow.lookups, v.MissProb)
		}
	}
}

// One-sided soundness: a lossy store may under-explore, but must never
// invent a violation — if the exact run holds, the lossy run must not
// report one. Bitstate additionally can only prune (it has no false
// negatives), so its state count never exceeds exact's; hash
// compaction drops inserts at saturation and may re-explore, which
// costs work, never soundness.
func TestLossyStoresNeverInventViolations(t *testing.T) {
	const budget = 30_000 // bound the big corpus entries
	for i, c := range storeCorpus() {
		exact := Check(c.mk(), c.g, Options{MaxStates: budget})
		for _, kind := range []StoreKind{StoreBitstate, StoreHashCompact} {
			// Starve the store (2^6 bits/slots) to maximize false
			// positives — the adversarial regime for this property.
			v := Check(c.mk(), c.g, Options{Store: kind, StoreBits: 6, MaxStates: budget})
			if kind == StoreBitstate && v.States > exact.States {
				t.Fatalf("corpus[%d] %s: lossy explored %d states, exact %d — bitstate can only prune",
					i, kind, v.States, exact.States)
			}
			if v.Violation != ViolationNone && exact.OK {
				t.Fatalf("corpus[%d] %s: lossy invented violation %v on a holding scenario",
					i, kind, v.Violation)
			}
		}
	}
}

// A roomy hash-compaction table is effectively exact: same verdict,
// same state count, and a reported MissProb that is tiny but honest
// (nonzero — fingerprints can collide in principle).
func TestHashCompactRoomyTableMatchesExact(t *testing.T) {
	t.Parallel()
	exact := Check(line3Agents(), graph.Line(3), Options{})
	v := Check(line3Agents(), graph.Line(3), Options{Store: StoreHashCompact, StoreBits: 16})
	if v.OK != exact.OK || v.States != exact.States || v.MaxDepth != exact.MaxDepth {
		t.Fatalf("roomy hash-compact diverged: %+v vs exact %+v", v, exact)
	}
	if v.MissProb <= 0 || v.MissProb > 1e-6 {
		t.Fatalf("roomy hash-compact MissProb = %v, want tiny nonzero", v.MissProb)
	}
	if exact.MissProb != 0 {
		t.Fatalf("exact store reported MissProb %v", exact.MissProb)
	}
}

// MissProb must grow as the store shrinks (same run, fewer bits) and
// be 1 at saturation.
func TestBitstateMissProbMonotoneInSize(t *testing.T) {
	t.Parallel()
	prev := -1.0
	for _, bits := range []int{20, 16, 14, 12} {
		v := Check(line3Agents(), graph.Line(3), Options{Store: StoreBitstate, StoreBits: bits})
		if v.MissProb <= prev {
			t.Fatalf("bits=%d: MissProb %v not above %v (smaller store must report a weaker bound)",
				bits, v.MissProb, prev)
		}
		prev = v.MissProb
	}
	if v := Check(line3Agents(), graph.Line(3), Options{Store: StoreBitstate, StoreBits: 6}); v.MissProb != 1 {
		t.Fatalf("saturated 64-bit array should report MissProb 1, got %v", v.MissProb)
	}
}

// Bitstate never false-negatives: has(k) after add(k) is always true
// (that is what makes pruning the only failure mode).
func TestBitstateNoFalseNegatives(t *testing.T) {
	t.Parallel()
	b := newBitstateSeen(8) // 256 bits, saturates fast
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 10_000; i++ {
		k := [2]uint64{rng.Uint64(), rng.Uint64()}
		b.add(k)
		if !b.has(k) {
			t.Fatalf("key %x lost after add", k)
		}
	}
}

// Hash compaction drops inserts when a probe run saturates instead of
// scanning unboundedly; dropped keys simply read as unseen (sound:
// they get re-explored). Keys that were accepted must stay present.
func TestHashCompactSaturationDropsNotScans(t *testing.T) {
	t.Parallel()
	h := newHashCompactSeen(6) // 64 slots
	rng := rand.New(rand.NewSource(7))
	var kept [][2]uint64
	for i := 0; i < 1_000; i++ {
		k := [2]uint64{rng.Uint64(), rng.Uint64()}
		before := h.dropped
		h.add(k)
		if h.dropped == before && h.has(k) {
			kept = append(kept, k)
		}
	}
	if h.dropped == 0 {
		t.Fatal("1000 inserts into 64 slots never hit the probe cap")
	}
	for _, k := range kept {
		if !h.has(k) {
			t.Fatalf("accepted key %x vanished", k)
		}
	}
}

// newSeenSet clamps degenerate StoreBits to the floor instead of
// allocating a zero-length array.
func TestNewSeenSetClampsBits(t *testing.T) {
	t.Parallel()
	for _, bits := range []int{-4, 0, 1} {
		opts := Options{Store: StoreBitstate, StoreBits: bits}
		if s := newSeenSet(opts); s == nil {
			t.Fatal("nil seen set")
		}
		opts.Store = StoreHashCompact
		if s := newSeenSet(opts); s == nil {
			t.Fatal("nil seen set")
		}
	}
	if _, ok := newSeenSet(Options{}).(*exactSeen); !ok {
		t.Fatal("default store is not exact")
	}
}

// TestStoreBitsCeiling: StoreBits goes into make, so it is clamped from
// above as well — 62 used to panic (makeslice: len out of range), 40 to
// ask for 128 GiB. The ceilings are checked on storeBits, not by
// allocating 2 GiB stores.
func TestStoreBitsCeiling(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		store     StoreKind
		bits, def int
		want      int
	}{
		{StoreBitstate, 62, defaultBitstateBits, MaxBitstateBits},
		{StoreBitstate, 40, defaultBitstateBits, MaxBitstateBits},
		{StoreBitstate, MaxBitstateBits, defaultBitstateBits, MaxBitstateBits},
		{StoreBitstate, 24, defaultBitstateBits, 24},
		{StoreBitstate, 0, defaultBitstateBits, defaultBitstateBits},
		{StoreBitstate, 1, defaultBitstateBits, storeMinBits},
		{StoreHashCompact, 62, defaultHashCompactBits, MaxHashCompactBits},
		{StoreHashCompact, MaxHashCompactBits + 1, defaultHashCompactBits, MaxHashCompactBits},
		{StoreHashCompact, 12, defaultHashCompactBits, 12},
		{StoreHashCompact, -1, defaultHashCompactBits, defaultHashCompactBits},
	} {
		if got := storeBits(Options{Store: tc.store, StoreBits: tc.bits}, tc.def); got != tc.want {
			t.Errorf("%s store_bits %d resolves to %d, want %d", tc.store, tc.bits, got, tc.want)
		}
	}
	// Neither ceiling is more than a 2 GiB allocation.
	if bytes := (uint64(1) << MaxBitstateBits) / 8; bytes > 2<<30 {
		t.Errorf("bitstate ceiling is %d bytes", bytes)
	}
	if bytes := (uint64(1) << MaxHashCompactBits) * 4; bytes > 2<<30 {
		t.Errorf("hash-compact ceiling is %d bytes", bytes)
	}
}
