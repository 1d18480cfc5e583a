package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/engine"
)

// gridCell is one cell of the benchmark's sweep grid: two agents with
// bases {10,15}/{15,10} times scale on a complete graph, release-outbid
// and rebid on-change, under one utility and one network. The document
// has the shape the benchmark's generator sends.
func gridCell(t testing.TB, utility string, scale int64, faults string) engine.Scenario {
	t.Helper()
	agent := func(id int, b0, b1 int64) string {
		return fmt.Sprintf(`{"id":%d,"items":2,"base":[%d,%d],"policy":{"target":2,"utility":{"kind":%q},"release_outbid":true,"rebid":"on-change"}}`,
			id, b0*scale, b1*scale, utility)
	}
	doc := fmt.Sprintf(`{"version":1,"name":"mca/%s-x%d","agents":[%s,%s],"graph":{"nodes":2,"edges":[{"u":0,"v":1}]},"explore":{"max_states":100000},"faults":%s}`,
		utility, scale, agent(0, 10, 15), agent(1, 15, 10), faults)
	s, err := engine.DecodeScenario([]byte(doc))
	if err != nil {
		t.Fatalf("%s: %v", doc, err)
	}
	return s
}

const (
	drop25 = `{"drop":0.25}`
	delay3 = `{"delay":3}`
)

// TestGridFaultCellsArePinned: the four sampled cells of the benchmark's
// grid keep the verdicts its known answers expect, at the smallest, a
// small and the largest scale the grid draws. The sampled schedules of
// a cell depend only on its seeds, so a generator or delivery-order
// change that flips one shows up here, not first in the benchmark.
func TestGridFaultCellsArePinned(t *testing.T) {
	want := []struct {
		utility, faults string
		status          engine.Status
	}{
		{"submodular-residual", drop25, engine.StatusViolated},
		{"non-submodular-synergy", drop25, engine.StatusViolated},
		{"submodular-residual", delay3, engine.StatusHolds},
		{"non-submodular-synergy", delay3, engine.StatusViolated},
	}
	for _, scale := range []int64{4, 8, 4 << 30} {
		for _, w := range want {
			s := gridCell(t, w.utility, scale, w.faults)
			if e := (engine.Auto{}).EngineFor(s); e.Name() != "simulation" {
				t.Fatalf("%s %s: Auto picks %s", s.Name, w.faults, e.Name())
			}
			if res := (engine.Auto{}).Verify(context.Background(), s); res.Status != w.status {
				t.Errorf("%s %s: %v, want %v (%+v)", s.Name, w.faults, res.Status, w.status, res.Stats)
			}
		}
	}
}

// TestSimulatedCellAllocations bounds what one sampled cell allocates:
// one network, delay line and generator serve its sixteen runs, so the
// bytes are the runs' agents and messages.
func TestSimulatedCellAllocations(t *testing.T) {
	s := gridCell(t, "submodular-residual", 4, drop25)
	const cells = 20
	ctx := context.Background()
	engine.Simulation{}.Verify(ctx, s) // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cells; i++ {
		engine.Simulation{}.Verify(ctx, s)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cells; per >= 48<<10 {
		t.Fatalf("a drop-0.25 cell allocates %d bytes, want under 48 KB", per)
	}
}

func BenchmarkSimulatedGridCell(b *testing.B) {
	for _, c := range []struct{ name, faults string }{{"drop25", drop25}, {"delay3", delay3}} {
		s := gridCell(b, "submodular-residual", 4, c.faults)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.Simulation{}.Verify(context.Background(), s)
			}
		})
	}
}
