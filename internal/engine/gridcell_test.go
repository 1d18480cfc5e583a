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
// grid keep the verdicts its known answers expect, and the sixteen
// runs' delivery, drop and convergence totals, at the smallest, a small
// and the largest scale the grid draws. The sampled schedules of a cell
// depend only on its seeds, so a generator, delivery-order or agent
// reset change that moves one shows up here, not first in the
// benchmark.
func TestGridFaultCellsArePinned(t *testing.T) {
	want := []struct {
		utility, faults                string
		status                         engine.Status
		deliveries, dropped, converged int
	}{
		{"submodular-residual", drop25, engine.StatusViolated, 47, 14, 14},
		{"non-submodular-synergy", drop25, engine.StatusViolated, 92, 27, 6},
		{"submodular-residual", delay3, engine.StatusHolds, 64, 0, 16},
		{"non-submodular-synergy", delay3, engine.StatusViolated, 384, 0, 0},
	}
	for _, scale := range []int64{4, 8, 4 << 30} {
		for _, w := range want {
			s := gridCell(t, w.utility, scale, w.faults)
			if e := (engine.Auto{}).EngineFor(s); e.Name() != "simulation" {
				t.Fatalf("%s %s: Auto picks %s", s.Name, w.faults, e.Name())
			}
			res := (engine.Auto{}).Verify(context.Background(), s)
			if res.Status != w.status {
				t.Errorf("%s %s: %v, want %v (%+v)", s.Name, w.faults, res.Status, w.status, res.Stats)
			}
			if st := res.Stats; st.Deliveries != w.deliveries || st.Dropped != w.dropped || st.Converged != w.converged {
				t.Errorf("%s %s: %d deliveries, %d dropped, %d converged; pinned %d, %d, %d",
					s.Name, w.faults, st.Deliveries, st.Dropped, st.Converged, w.deliveries, w.dropped, w.converged)
			}
		}
	}
}

// TestSimulatedCellAllocations bounds what one sampled cell allocates.
// Its sixteen runs share one network, delay line and generator, one
// agent set restored in place before each run, and per run one pair of
// rewound payload buffers that every broadcast and reply appends to —
// so a cell's allocations are its set-up and the result, not a count
// that grows with the messages its runs send.
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
	if per := (after.TotalAlloc - before.TotalAlloc) / cells; per >= 8<<10 {
		t.Errorf("a drop-0.25 cell allocates %d bytes, want under 8 KB", per)
	}
	if per := (after.Mallocs - before.Mallocs) / cells; per > 100 {
		t.Errorf("a drop-0.25 cell makes %d allocations, want at most 100", per)
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
