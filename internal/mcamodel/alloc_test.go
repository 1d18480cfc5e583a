package mcamodel

import (
	"runtime"
	"testing"

	"repro/internal/relalg"
)

// TestTranslateOnlyAllocations bounds what translating the benchmark's
// consensus check allocates: 40,820 clauses in about 5.8 MB, since
// Circuit.Assert reserves the binary list, the arena and the watch
// lists' first room along with the variables. Grown clause by clause,
// the same translation allocated 7.24 MB.
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
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d clauses in %d bytes, %d allocations", st.Clauses, bytes, after.Mallocs-before.Mallocs)
	if st.Clauses != 40820 {
		t.Fatalf("%d clauses, want 40820", st.Clauses)
	}
	if bytes > 6<<20 {
		t.Errorf("translation allocated %d bytes, want at most 6 MiB", bytes)
	}
}
