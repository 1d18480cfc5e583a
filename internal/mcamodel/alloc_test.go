package mcamodel

import (
	"runtime"
	"testing"

	"repro/internal/relalg"
)

// raceEnabled reports a race-detector build (race_test.go).
var raceEnabled bool

// TestTranslateOnlyAllocations bounds what translating the benchmark's
// consensus check allocates: 40,820 clauses in about 5.2 MB and 6.0k
// allocations, since Circuit.Assert reserves the binary list, the arena
// and the watch slabs along with the variables. Grown clause by clause,
// the same translation allocated 7.24 MB; with a slice per watch list,
// 5.78 MB in 26.1k allocations. The race detector adds to the bytes
// runtime.MemStats counts (7.9 MB here), so that build checks only the
// count.
func TestTranslateOnlyAllocations(t *testing.T) {
	e, err := BuildOptimized(benchScope())
	if err != nil {
		t.Fatal(err)
	}
	f := relalg.And(e.Background, relalg.Not(e.Consensus))
	relalg.TranslateOnly(e.Bounds, f) // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := relalg.TranslateOnly(e.Bounds, f)
	runtime.ReadMemStats(&after)
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%d clauses in %d bytes, %d allocations", st.Clauses, bytes, allocs)
	if st.Clauses != 40820 {
		t.Fatalf("%d clauses, want 40820", st.Clauses)
	}
	if bytes > 6<<20 && !raceEnabled {
		t.Errorf("translation allocated %d bytes, want at most 6 MiB", bytes)
	}
	if allocs > 7000 {
		t.Errorf("translation made %d allocations, want at most 7,000", allocs)
	}
}
