package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// awkwardNamesSweep is a sweep whose cell names need every kind of
// escaping encoding/json does: a quote, a backslash, the HTML
// characters, a control character, U+2028 and non-ASCII text.
const awkwardNamesSweep = `{"version":1,"name":"q\"b\\s",
	"base":{"graph":{"nodes":2,"edges":[{"u":0,"v":1}]},"explore":{"max_states":1000},
	 "agents":[{"id":0,"items":1,"base":[5],"policy":{"target":1,"utility":{"kind":"flat"},"rebid":"on-change"}},{"id":1,"items":1,"base":[7],"policy":{"target":1,"utility":{"kind":"flat"},"rebid":"on-change"}}]},
	"axes":[{"axis":"n","variants":[
	 {"name":"<a&b>","scenario":{}},
	 {"name":"bell\u0007","scenario":{"faults":{"drop":0.25}}},
	 {"name":"ünï\u2028ĉode","scenario":{"faults":{"delay":2}}},
	 {"name":"plain","scenario":{"explore":{"max_states":999}}}]}]}`

// encodeWorkUnitReference is the unit encoder AssembleWorkUnit
// replaced, kept as the oracle for its bytes: the spec and scenario
// documents are encoded on their own and marshalled as raw members of
// the unit.
func encodeWorkUnitReference(index int, eng Engine, s *Scenario) ([]byte, error) {
	spec, err := EncodeEngineSpec(eng)
	if err != nil {
		return nil, err
	}
	doc, err := EncodeScenario(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Version  int             `json:"version"`
		Index    int             `json:"index"`
		Engine   json.RawMessage `json:"engine"`
		Scenario json.RawMessage `json:"scenario"`
	}{SchemaVersion, index, spec, doc})
}

// TestHeldBytesUnitMatchesEncodeWorkUnit pins the coordinator's unit
// path: the unit AssembleWorkUnit writes around a decoded cell's
// canonical bytes is, byte for byte, the unit the reference encoder
// writes for the cell's scenario, and so is EncodeWorkUnit's (and
// fleet.EncodeWorkUnit's, which delegates to it) — for every engine
// kind, bench-shaped cells and names that need escaping alike.
func TestHeldBytesUnitMatchesEncodeWorkUnit(t *testing.T) {
	for _, doc := range [][]byte{benchShapedGrid(10), []byte(awkwardNamesSweep)} {
		sw, err := DecodeSweep(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []Engine{Auto{}, Explicit{}, Simulation{Runs: 4, Seed: 9}, SAT{}} {
			spec, err := EncodeEngineSpec(eng)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sw.cells {
				c := &sw.cells[i]
				index := 1000*i + 7
				want, err := encodeWorkUnitReference(index, eng, &c.scenario)
				if err != nil {
					t.Fatal(err)
				}
				if got := AssembleWorkUnit(index, string(spec), c.scenario.Name, c.canonical); string(got) != string(want) {
					t.Fatalf("%T cell %q held bytes:\n got %s\nwant %s", eng, c.scenario.Name, got, want)
				}
				if got, err := EncodeWorkUnit(index, eng, &c.scenario); err != nil || string(got) != string(want) {
					t.Fatalf("%T cell %q EncodeWorkUnit (%v):\n got %s\nwant %s", eng, c.scenario.Name, err, got, want)
				}
			}
		}
	}
}

// encodedRecorder is an engine that takes the held bytes and records,
// per scenario name, the canonical encoding it was handed.
type encodedRecorder struct{ got *sync.Map } // name → []byte

func (encodedRecorder) Name() string { return "recorder" }

func (e encodedRecorder) Verify(ctx context.Context, s Scenario) Result {
	panic("Verify called on an engine that takes held bytes")
}

func (e encodedRecorder) VerifyEncoded(_ context.Context, s Scenario, canonical []byte) Result {
	e.got.Store(s.Name, canonical)
	return Result{Index: -1, Scenario: s.Name, Engine: "recorder", Status: StatusHolds}
}

// TestVerifyCachedHandsHeldBytes: verifyCached gives an engine with a
// VerifyEncoded method the canonical bytes it holds instead of calling
// Verify — a sweep cell's own bytes, not a copy, or the encoding it
// made for the cache key — and nil when it holds none.
func TestVerifyCachedHandsHeldBytes(t *testing.T) {
	sw, err := DecodeSweep([]byte(awkwardNamesSweep))
	if err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		rec := encodedRecorder{got: &sync.Map{}}
		opts := RunnerOptions{Workers: 2, Engine: rec}
		handed := func(name string) ([]byte, bool) {
			v, ok := rec.got.Load(name)
			if !ok {
				return nil, false
			}
			return v.([]byte), true
		}
		if cached {
			opts.Cache = newMapCache()
		}
		drainSweep(t, NewRunner(opts), sw)
		for i := range sw.cells {
			c := &sw.cells[i]
			if got, _ := handed(c.scenario.Name); len(got) == 0 || &got[0] != &c.canonical[0] {
				t.Fatalf("cache=%v cell %q: handed %q, want the cell's own canonical bytes", cached, c.scenario.Name, got)
			}
		}

		rec = encodedRecorder{got: &sync.Map{}}
		opts.Engine = rec
		if cached {
			opts.Cache = newMapCache()
		}
		scenarios := sw.Scenarios()
		NewRunner(opts).Run(context.Background(), scenarios)
		for i := range scenarios {
			s := &scenarios[i]
			want, err := encodeUnnamed(s)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := handed(s.Name)
			if !ok {
				t.Fatalf("cache=%v scenario %q was not verified", cached, s.Name)
			}
			if !cached {
				want = nil
			}
			if string(got) != string(want) || (got == nil) != (want == nil) {
				t.Fatalf("cache=%v scenario %q: handed %q, want %q", cached, s.Name, got, want)
			}
		}
	}
}

// benchUnits is a body of n units of bench-grid cells, one per line.
func benchUnits(t testing.TB, n int) []byte {
	sw, err := DecodeSweep(benchShapedGrid(200))
	if err != nil {
		t.Fatal(err)
	}
	var units [][]byte
	for i := 0; i < n; i++ {
		unit, err := EncodeWorkUnit(i, Auto{}, &sw.cells[i].scenario)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, unit)
	}
	return bytes.Join(units, []byte("\n"))
}

// TestWorkUnitsTellMoreUnitsFromTrailingData: after the last unit a
// body may hold, another unit is "more than max units", and anything
// that does not open one is trailing data, at its byte offset — after
// any unit alike.
func TestWorkUnitsTellMoreUnitsFromTrailingData(t *testing.T) {
	two := benchUnits(t, 2)
	if units, err := DecodeWorkUnits(append(bytes.Clone(two), " \n\t"...), 2); err != nil || len(units) != 2 {
		t.Fatalf("two units and white space: %d units, %v", len(units), err)
	}
	third := benchUnits(t, 3)
	if _, err := DecodeWorkUnits(third, 2); err == nil || err.Error() != "engine: more than 2 units" {
		t.Fatalf("three units, at most two: %v", err)
	}
	for _, max := range []int{2, 3} {
		for _, tail := range []string{"x", "}", "[1]", "\f", "\"unit\""} {
			body := append(bytes.Clone(two), "\n"+tail...)
			_, err := DecodeWorkUnits(body, max)
			if !errors.Is(err, errTrailingData) || !strings.Contains(err.Error(), "byte ") {
				t.Errorf("max %d, two units and %q: %v", max, tail, err)
			}
		}
	}
}

// BenchmarkDecodeWorkUnits reads a 16-unit body of bench-grid cells, as
// a worker reads a full dispatch, and reports the cost per unit.
//
//	go test ./internal/engine -run '^$' -bench DecodeWorkUnits -benchmem
func BenchmarkDecodeWorkUnits(b *testing.B) {
	body := benchUnits(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if units, err := DecodeWorkUnits(body, 16); err != nil || len(units) != 16 {
			b.Fatal(len(units), err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(16*b.N), "µs/unit")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	DecodeWorkUnits(body, 16)
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/16, "allocs/unit")
}
