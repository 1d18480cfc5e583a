package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fleet"
)

// gridDoc is a sweep document shaped like the benchmark's grid: n
// two-agent cells on a complete graph, alternating two utilities at
// growing scales, each on a reliable, a lossy and a delaying network —
// 3n cells, a third verified by the explicit engine and the rest
// sampled. name is the base scenario's name, which every cell name
// starts with.
func gridDoc(n int, name string) []byte {
	quoted, err := json.Marshal(name)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"version":1,"name":"grid","base":{"name":%s,"graph":{"nodes":2,"edges":[{"u":0,"v":1}]},"explore":{"max_states":100000}},"axes":[{"axis":"agents","variants":[`, quoted)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		kind, scale := "submodular-residual", int64(4*(1+i/2))
		if i%2 == 1 {
			kind = "non-submodular-synergy"
		}
		fmt.Fprintf(&b, `{"name":"%s-x%d","scenario":{"agents":[`, kind, scale)
		for id, base := range [][2]int64{{10, 15}, {15, 10}} {
			if id > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"id":%d,"items":2,"base":[%d,%d],"policy":{"target":2,"utility":{"kind":"%s"},"release_outbid":true,"rebid":"on-change"}}`,
				id, base[0]*scale, base[1]*scale, kind)
		}
		b.WriteString(`]}}`)
	}
	b.WriteString(`]},{"axis":"network","variants":[{"name":"reliable","scenario":{}},{"name":"drop25","scenario":{"faults":{"drop":0.25}}},{"name":"delay3","scenario":{"faults":{"delay":3}}}]}]}`)
	return []byte(b.String())
}

// awkwardName needs every kind of escaping encoding/json does.
const awkwardName = "q\"b\\s<a&b>\x07ünï "

func decodeGrid(t testing.TB, n int, name string) *engine.Sweep {
	t.Helper()
	sw, err := engine.DecodeSweep(gridDoc(n, name))
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestWorkUnitReadsRepeatedMembers pins the codec's repeated-member
// rule: a repeated engine or scenario merges into one value, member by
// member, the later copy overwriting only what it states — the way a
// scenario document's repeated section merges. (The two-pass decoder
// kept only the last copy: an empty scenario and a seed-only spec.)
func TestWorkUnitReadsRepeatedMembers(t *testing.T) {
	s := decodeGrid(t, 1, "mca").Scenarios()[1]
	scen, err := engine.EncodeScenario(&s)
	if err != nil {
		t.Fatal(err)
	}
	doc := `{"version":1,"index":4,` +
		`"engine":{"version":1,"kind":"simulation","runs":4},"engine":{"version":1,"kind":"simulation","seed":9},` +
		`"scenario":` + string(scen) + `,"scenario":{"version":1}}`
	index, eng, got, err := fleet.DecodeWorkUnit([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if index != 4 || eng != (engine.Simulation{Runs: 4, Seed: 9}) {
		t.Fatalf("index %d engine %#v, want 4 and the merged Simulation{Runs: 4, Seed: 9}", index, eng)
	}
	if back, _ := engine.EncodeScenario(&got); string(back) != string(scen) {
		t.Fatalf("repeated scenario read as\n %s\nwant the merge\n %s", back, scen)
	}
	// A later copy's members win.
	doc = strings.Replace(doc, `"scenario":{"version":1}`, `"scenario":{"version":1,"name":"renamed"}`, 1)
	if _, _, got, err = fleet.DecodeWorkUnit([]byte(doc)); err != nil || got.Name != "renamed" {
		t.Fatalf("name %q (%v), want the later copy's", got.Name, err)
	}
}

// TestWorkUnitDecodeAllocations bounds what a worker allocates to read
// one grid cell's unit: one pass of the wire reader into the typed unit,
// which allocates only the values it reads and the scenario built from
// them (20 allocations, 1.9 KB), where the reflective decode on a
// recycled json.Decoder took 29 and 2.0 KB, and the two-pass decoder
// before it, reading the scenario's bytes four times on a fresh decoder
// each, 69 and 7.5 KB.
func TestWorkUnitDecodeAllocations(t *testing.T) {
	s := decodeGrid(t, 1, "mca").Scenarios()[1]
	unit, err := fleet.EncodeWorkUnit(12, engine.Auto{}, &s)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	fleet.DecodeWorkUnit(unit) // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, _, _, err := fleet.DecodeWorkUnit(unit); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	t.Logf("%d allocations, %d bytes a unit", (after.Mallocs-before.Mallocs)/n, (after.TotalAlloc-before.TotalAlloc)/n)
	if per := (after.Mallocs - before.Mallocs) / n; per > 26 {
		t.Errorf("a unit decodes in %d allocations, want at most 26", per)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 2560 {
		t.Errorf("a unit decodes in %d bytes, want at most 2.5 KB", per)
	}
}

// BenchmarkFleetSweep is a fleet /sweep minus the coordinator's HTTP
// front: a 600-cell grid streamed through a coordinator and two
// in-process workers, every cell verified on a worker, reporting the
// cost per cell of the whole process (coordinator and workers) and the
// units each dispatch carried. It fails on an error or inconclusive
// cell, a local fallback, or a grid that took as many dispatches as it
// has cells: its cells are cheap, so dispatches must carry several.
//
//	go test ./internal/fleet -run '^$' -bench FleetSweep -benchtime 20x
func BenchmarkFleetSweep(b *testing.B) {
	sw := decodeGrid(b, 200, "mca")
	urls := make([]string, 2)
	for i := range urls {
		srv := httptest.NewServer(fleet.NewWorker(fleet.WorkerOptions{Slots: 2}).Handler())
		b.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for line := range coord.Runner(ctx, nil).StreamSweep(ctx, sw) {
			if st := line.Result.Status; line.Err != nil || st == engine.StatusInconclusive || st == engine.StatusError {
				b.Fatalf("cell %d: %s %v %v", line.Result.Index, st, line.Result.Err, line.Err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	st := coord.Stats()
	if st.LocalFallbacks != 0 {
		b.Fatalf("stats %+v: every cell must run on a worker", st)
	}
	if st.Dispatches >= uint64(b.N*sw.Len()) {
		b.Fatalf("stats %+v: %d dispatches for %d cells, want fewer", st, st.Dispatches, b.N*sw.Len())
	}
	cells := float64(b.N * sw.Len())
	b.ReportMetric(cells/float64(st.Dispatches), "units/dispatch")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/cells, "µs/cell")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/cells, "allocs/cell")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/cells, "B/cell")
}
