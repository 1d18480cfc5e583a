package explore

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkSerialDFS is the explicit check's hot loop end to end: the
// serial DFS over ring-3, every state keyed, stored and expanded. It
// reports the cost per state and per canonical key, and fails unless
// the run visits the pinned 100,110 states through 368,183 keys, none
// of them wide, so that a faster number is never a smaller search.
func BenchmarkSerialDFS(b *testing.B) {
	b.ReportAllocs()
	var v Verdict
	for i := 0; i < b.N; i++ {
		v = Check(ring3Agents(), graph.Ring(3), Options{MaxStates: 2000000})
		if !v.OK || v.States != 100110 || v.Store.Keys != 368183 || v.Store.WideKeys != 0 {
			b.Fatalf("ring-3: OK=%v states=%d keys=%d wide=%d, want 100110 states, 368183 keys, 0 wide",
				v.OK, v.States, v.Store.Keys, v.Store.WideKeys)
		}
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/float64(v.States), "ns/state")
	b.ReportMetric(ns/float64(v.Store.Keys), "ns/key")
}
