package mca

import (
	"math"
	"math/rand"
	"testing"
)

// clone copies times: both ranker constructors may reorder their input.
func clone(times []int) []int { return append([]int(nil), times...) }

// The two forms of Ranker are one function: over random multisets of
// times — duplicates, negative and huge bases, spreads on both sides of
// the one-word limit — the word form exists exactly when the spread is
// under 64, and then ranks every member as the sorted universe does.
func TestRankerFormsAgree(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	bases := []int{0, 1, -5, -64, 63, 1 << 40, math.MaxInt64 - 200, math.MinInt64}
	narrow, wide := 0, 0
	for i := 0; i < 4000; i++ {
		base, spread := bases[rng.Intn(len(bases))], rng.Intn(201)
		times := make([]int, 1+rng.Intn(70))
		for j := range times {
			times[j] = base + rng.Intn(spread+1)
		}
		sorted, r := SortedRanker(clone(times)), NewRanker(clone(times))
		uniq := sorted.uniq
		if fits := uniq[len(uniq)-1]-uniq[0] < 64; r.Wide() == fits {
			t.Fatalf("times %v: sorted form chosen=%v, spread fits one word=%v", times, r.Wide(), fits)
		}
		if r.Wide() {
			wide++
		} else {
			narrow++
		}
		for i, tm := range uniq {
			if got, want := r.Rank(tm), sorted.Rank(tm); got != want || want != i {
				t.Fatalf("times %v: Rank(%d) = %d, %d from the sorted universe, want %d", times, tm, got, want, i)
			}
		}
	}
	if narrow < 500 || wide < 500 {
		t.Fatalf("corpus is lopsided: %d narrow, %d wide", narrow, wide)
	}
}

// Spreads that overflow a signed subtraction must not wrap into the
// one-word form: a decoded state is untrusted input.
func TestRankerRefusesWrappedSpreads(t *testing.T) {
	t.Parallel()
	for _, times := range [][]int{
		{-1, math.MaxInt64},
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64, 0},
		{0, 64},
	} {
		if r := NewRanker(clone(times)); !r.Wide() || r.Rank(times[1]) != 1 {
			t.Errorf("times %v: sorted form=%v, Rank(%d)=%d, want the sorted form and 1", times, r.Wide(), times[1], r.Rank(times[1]))
		}
	}
	if r := NewRanker([]int{math.MaxInt64 - 63, math.MaxInt64}); r.Wide() || r.Rank(math.MaxInt64) != 1 {
		t.Errorf("a spread of 63 at the top of the range: sorted form=%v rank=%d, want the word form and 1", r.Wide(), r.Rank(math.MaxInt64))
	}
}

// Packed rank slots stay prefix-free past one byte: a universe of 255
// or more members escapes to nine bytes per large slot, both rankers
// pack the same bytes, and FoldPacked tells a zero slot from padding.
func TestRankSlotsPackWithoutTruncation(t *testing.T) {
	t.Parallel()
	view := make([]BidInfo, 300)
	for j := range view {
		view[j].Time = 10 * (j + 1)
	}
	m := Message{View: view, InfoTimes: []int{0, 20}}
	r := NewRanker(m.AppendTimes(nil))
	packed := m.AppendTimeRanks(nil, &r, 2)
	// 255 one-byte view slots, 45 escaped ones, two information slots.
	if want := 255 + 45*9 + 2; len(packed) != want {
		t.Fatalf("packed %d bytes, want %d", len(packed), want)
	}
	if packed[254] != 254 || packed[255] != 0xff || packed[256] != 255 {
		t.Fatalf("slots 254 and 255 packed as % x", packed[254:265])
	}
	if packed[len(packed)-2] != 0 || packed[len(packed)-1] != 2 {
		t.Fatalf("information slots packed as % x, want 00 02", packed[len(packed)-2:])
	}

	small := Message{View: []BidInfo{{Time: 5}, {Time: 7}}, InfoTimes: []int{0, 5}}
	word, sorted := NewRanker(small.AppendTimes(nil)), SortedRanker(small.AppendTimes(nil))
	if a, b := small.AppendTimeRanks(nil, &word, 3), small.AppendTimeRanks(nil, &sorted, 3); word.Wide() || string(a) != string(b) || string(a) != "\x00\x01\x00\x01\x00" {
		t.Fatalf("word form packs % x, sorted form % x, want 00 01 00 01 00", a, b)
	}

	seed := [2]uint64{1, 2}
	if FoldPacked(seed, []byte{3, 0}) == FoldPacked(seed, []byte{3}) {
		t.Fatal("a trailing zero slot folds like padding")
	}
	if FoldPacked(seed, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}) == FoldPacked(seed, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatal("the ninth slot did not reach the fold")
	}
}
