package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/sat"
	"repro/internal/trace"
)

// mapCache is the smallest ResultCache: a map under a mutex.
type mapCache struct {
	mu sync.Mutex
	m  map[string]Result
}

func newMapCache() *mapCache { return &mapCache{m: map[string]Result{}} }

func (c *mapCache) Get(key string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[key]
	return res, ok
}

func (c *mapCache) Put(key string, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = res
}

// fullEncode is EncodeResult of a copy of r that carries no stored
// bytes.
func fullEncode(t testing.TB, r Result) []byte {
	t.Helper()
	r.line = nil
	data, err := EncodeResult(&r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// drainSweep runs sw through r and returns its lines by cell index.
func drainSweep(t testing.TB, r *Runner, sw *Sweep) []ResultLine {
	t.Helper()
	lines := make([]ResultLine, sw.Len())
	for line := range r.StreamSweep(context.Background(), sw) {
		if line.Err != nil {
			t.Fatal(line.Err)
		}
		lines[line.Result.Index] = line
	}
	return lines
}

// hitShapes are stored verdicts of every shape a line can take: with a
// trace, with error text, with a miss_prob float, with SAT stats.
func hitShapes() map[string]Result {
	rec := trace.NewRecorder()
	rec.ItemNames = []string{"a<b>", "ü"}
	rec.Record(trace.Step{Label: `deliver 0→1 "bid"`, Agents: []trace.AgentSnapshot{
		{ID: 0, Bids: []int64{10, -1}, Winner: []int{0, -1}, Bundle: []int{0}},
		{ID: 1, Bids: []int64{15, 3}, Winner: []int{1, 1}},
	}})
	rec.Record(trace.Step{Label: "cycle"})
	return map[string]Result{
		"trace": {Engine: "explicit", Status: StatusViolated, Violation: explore.ViolationOscillation, Trace: rec,
			Stats: Stats{States: 412, MaxDepth: 9, Exhausted: true, Wall: 1234567}},
		"error-text": {Engine: "simulation", Status: StatusHolds, Err: errors.New(`budget "8" <hit> & kept`),
			Stats: Stats{Runs: 16, Converged: 16, Deliveries: 300, Dropped: 7, Duplicated: 2}},
		"miss-prob": {Engine: "explicit", Status: StatusHolds,
			Stats: Stats{States: 99, MissProb: 1.25e-7, Capped: true, Exhausted: false}},
		"sat-stats": {Engine: "sat", Status: StatusHolds, SATStatus: sat.StatusUnsat,
			Stats: Stats{PrimaryVars: 120, AuxVars: 340, Clauses: 2210, TranslateTime: 3 * time.Millisecond, SolveTime: 41 * time.Microsecond,
				Conflicts: 17, Propagations: 9000, LearntClauses: 12}},
		"bare": {Status: StatusViolated},
	}
}

// TestEncodeResultOfAHitIsByteIdentical: a hit's line, spliced from the
// bytes its cached verdict keeps, is the full encoding — for every cell
// of a warm sweep, for any name, index and cached flag, and for every
// shape of stored verdict. A hit that differs from its stored verdict
// in any other encoded field is encoded in full, and an overwritten
// entry's bytes are never served for the new verdict.
func TestEncodeResultOfAHitIsByteIdentical(t *testing.T) {
	t.Run("warm-sweep", func(t *testing.T) {
		sw, err := DecodeSweep(benchShapedGrid(200))
		if err != nil {
			t.Fatal(err)
		}
		c := newMapCache()
		drainSweep(t, NewRunner(RunnerOptions{Workers: 2, Cache: c}), sw)
		for pass := 0; pass < 2; pass++ {
			for i, line := range drainSweep(t, NewRunner(RunnerOptions{Workers: 2, Cache: c}), sw) {
				if !line.Result.Cached || line.Result.line == nil || line.Result.line.data == nil {
					t.Fatalf("pass %d cell %d: not spliced from a cached line (cached=%v)", pass, i, line.Result.Cached)
				}
				if want := fullEncode(t, line.Result); !bytes.Equal(line.Data, want) {
					t.Fatalf("pass %d cell %d:\n got %s\nwant %s", pass, i, line.Data, want)
				}
			}
		}
	})

	t.Run("names-and-shapes", func(t *testing.T) {
		names := []string{"", "grid/submodular-residual-x4000012/reliable", "a<b>&c", `say "hi" \ bye`,
			"line\u2028sep\u2029end", "ñandú/日本", "tab\there\x01", "bad\xffutf8", "del\x7f"}
		for shape, stored := range hitShapes() {
			hit := withLine(stored)
			for _, name := range names {
				for _, index := range []int{-1, 0, 7, 123456} {
					for _, cached := range []bool{true, false} {
						hit.Scenario, hit.Index, hit.Cached = name, index, cached
						got, err := EncodeResult(&hit)
						if err != nil {
							t.Fatal(err)
						}
						if want := fullEncode(t, hit); !bytes.Equal(got, want) {
							t.Fatalf("%s %q index %d cached %v:\n got %s\nwant %s", shape, name, index, cached, got, want)
						}
					}
				}
			}
			if hit.line.data == nil {
				t.Fatalf("%s: never spliced", shape)
			}
		}
	})

	t.Run("other-fields-fall-back", func(t *testing.T) {
		other := trace.NewRecorder()
		other.Record(trace.Step{Label: "other"})
		edits := map[string]func(*Result){
			"engine":    func(r *Result) { r.Engine = "explicit-parallel(2)" },
			"status":    func(r *Result) { r.Status = StatusInconclusive },
			"violation": func(r *Result) { r.Violation = explore.ViolationDisagreement },
			"sat":       func(r *Result) { r.SATStatus = sat.StatusSat },
			"trace":     func(r *Result) { r.Trace = other },
			"stats":     func(r *Result) { r.Stats.States++ },
			"error":     func(r *Result) { r.Err = errors.New("other") },
			"no-error":  func(r *Result) { r.Err = nil },
		}
		for shape, stored := range hitShapes() {
			hit := withLine(stored)
			hit.Scenario, hit.Index, hit.Cached = "cell", 3, true
			spliced, _ := EncodeResult(&hit)
			for field, edit := range edits {
				edited := hit
				edit(&edited)
				want := fullEncode(t, edited)
				if bytes.Equal(want, spliced) {
					continue // the edit does not change this shape's line
				}
				if got, _ := EncodeResult(&edited); !bytes.Equal(got, want) {
					t.Fatalf("%s with another %s:\n got %s\nwant %s", shape, field, got, want)
				}
			}
		}
	})

	t.Run("concurrent-first-hits", func(t *testing.T) {
		stored := withLine(hitShapes()["trace"])
		want := fullEncode(t, stored)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hit := stored
				if got, _ := EncodeResult(&hit); !bytes.Equal(got, want) {
					t.Errorf("concurrent first hit:\n got %s\nwant %s", got, want)
				}
			}()
		}
		wg.Wait()
	})

	t.Run("overwrite-drops-bytes", func(t *testing.T) {
		sw, err := DecodeSweep([]byte(sweepDoc))
		if err != nil {
			t.Fatal(err)
		}
		s := sw.cells[0].scenario
		c := newMapCache()
		key, err := CacheKey(&s, Auto{})
		if err != nil {
			t.Fatal(err)
		}
		shapes := hitShapes()
		c.Put(key, withLine(shapes["trace"]))
		first := VerifyCached(context.Background(), Auto{}, s, c)
		before, _ := EncodeResult(&first)
		c.Put(key, withLine(shapes["sat-stats"])) // what verifyCached stores
		second := VerifyCached(context.Background(), Auto{}, s, c)
		if !second.Cached || second.line == first.line {
			t.Fatalf("the overwritten entry kept its line (cached=%v)", second.Cached)
		}
		after, _ := EncodeResult(&second)
		if want := fullEncode(t, second); !bytes.Equal(after, want) || bytes.Equal(after, before) {
			t.Fatalf("after the overwrite:\n got %s\nwant %s", after, want)
		}
	})
}

// unwrapping stands in for the fleet's remote engine, which this package
// cannot import: it only decides where local runs, and is addressed as
// local. The real one is pinned by internal/fleet's
// TestWorkerCachedResultStoredUncached, which finds every verdict a
// coordinator's Runner stored under the CacheKey address.
type unwrapping struct {
	owner *int
	local Engine
}

func (u unwrapping) Name() string                                  { return "unwrapping" }
func (u unwrapping) Verify(ctx context.Context, s Scenario) Result { return u.local.Verify(ctx, s) }
func (u unwrapping) Unwrap() Engine                                { return u.local }

// sliceEngine and anyEngine are user engines; their values are not
// even comparable. EncodeEngineSpec refuses them, so they have no
// content address.
type sliceEngine struct{ Opts []int }

func (sliceEngine) Name() string { return "slice" }
func (e sliceEngine) Verify(ctx context.Context, s Scenario) Result {
	return Result{Index: -1, Scenario: s.Name, Engine: e.Name(), Status: StatusHolds}
}

type anyEngine struct{ X any }

func (anyEngine) Name() string { return "any" }
func (e anyEngine) Verify(ctx context.Context, s Scenario) Result {
	return Result{Index: -1, Scenario: s.Name, Engine: e.Name(), Status: StatusHolds}
}

// keyCache answers every Get with a hit naming the key it was asked
// for, so a Runner's lines report the content address of each cell
// without running an engine. It counts the calls it sees.
type keyCache struct{ gets, puts atomic.Int64 }

func (c *keyCache) Get(key string) (Result, bool) {
	c.gets.Add(1)
	return Result{Engine: key, Status: StatusHolds}, true
}
func (c *keyCache) Put(string, Result) { c.puts.Add(1) }

// TestContentAddressOncePerRunner: a Runner encodes each addressed
// engine's spec once, and every address it computes is the CacheKey
// address — for Auto resolving to each backend, for the normalized
// Simulation and SAT fields, and through Unwrap — while a user engine,
// which has no address, runs without touching the cache.
func TestContentAddressOncePerRunner(t *testing.T) {
	grid, err := DecodeSweep([]byte(sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	models, err := DecodeSweep(sweepCorpus()["model-spec-merge"])
	if err != nil {
		t.Fatal(err)
	}
	resolved := map[string]bool{}
	for _, sw := range []*Sweep{grid, models} {
		for i := range sw.cells {
			resolved[fmt.Sprintf("%T", resolveEngine(Auto{}, &sw.cells[i].scenario))] = true
		}
	}
	for _, want := range []string{"engine.SAT", "engine.Simulation", "engine.Explicit"} {
		if !resolved[want] {
			t.Fatalf("Auto never resolves to %s over the test grids: %v", want, resolved)
		}
	}

	owner := 1
	for _, tc := range []struct {
		eng   Engine
		specs int // distinct addressed engines over both grids
	}{
		{Auto{}, 3},
		{Auto{Workers: 2}, 3},
		{Simulation{}, 1},
		{Simulation{Runs: 16}, 1},
		{Simulation{Seed: 5, BudgetFactor: 3}, 1},
		{SAT{Sessions: NewSessionPool()}, 1},
		{SAT{Workers: 2}, 1},
		{Explicit{}, 1},
		{unwrapping{&owner, Auto{}}, 3},
		{unwrapping{&owner, Simulation{Runs: 16}}, 1},
		{sliceEngine{Opts: []int{1, 2}}, 0},
		{anyEngine{X: []int{3}}, 0},
	} {
		addressed := tc.specs > 0
		c := &keyCache{}
		r := NewRunner(RunnerOptions{Workers: 2, Engine: tc.eng, Cache: c})
		for _, sw := range []*Sweep{grid, models, grid} {
			for i, line := range drainSweep(t, r, sw) {
				s := &sw.cells[i].scenario
				want, err := CacheKey(s, tc.eng)
				if !addressed {
					if err == nil || line.Result.Engine != tc.eng.Name() {
						t.Fatalf("%T cell %q: CacheKey %s (%v), line from %q", tc.eng, s.Name, want, err, line.Result.Engine)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := line.Result.Engine; got != want {
					t.Fatalf("%T%+v cell %q: Runner address %s, CacheKey %s", tc.eng, tc.eng, s.Name, got, want)
				}
			}
		}
		if !addressed && (c.gets.Load() != 0 || c.puts.Load() != 0) {
			t.Fatalf("%T: an engine without an address saw %d gets and %d puts", tc.eng, c.gets.Load(), c.puts.Load())
		}
		if n := encoded(&r.specs); n != tc.specs {
			t.Fatalf("%T%+v: %d specs encoded, want %d", tc.eng, tc.eng, n, tc.specs)
		}
	}

	// Simulation{} and Simulation{Runs: 16} are one verification: one
	// spec, one address.
	var m specMemo
	c := &grid.cells[2] // a sampled cell
	a, _ := m.address(c.canonical, &c.scenario, Simulation{})
	b, _ := m.address(c.canonical, &c.scenario, Simulation{Runs: 16})
	if want, _ := CacheKey(&c.scenario, Simulation{}); a != want || b != want || encoded(&m) != 1 {
		t.Fatalf("Simulation{} %s, Simulation{Runs: 16} %s, CacheKey %s, %d specs", a, b, want, encoded(&m))
	}
}

// encoded counts the specs m holds.
func encoded(m *specMemo) int {
	n := 0
	m.m.Range(func(any, any) bool { n++; return true })
	return n
}

// BenchmarkStreamSweepWarm is a warm /sweep minus HTTP: the 600-cell
// bench grid replayed through a fresh Runner per request (as mcaserved
// builds one) against a filled map cache, so every cell is a hit.
//
//	go test ./internal/engine -run '^$' -bench StreamSweepWarm -benchtime 200x
func BenchmarkStreamSweepWarm(b *testing.B) {
	sw, err := DecodeSweep(benchShapedGrid(200))
	if err != nil {
		b.Fatal(err)
	}
	c := newMapCache()
	drainSweep(b, NewRunner(RunnerOptions{Workers: 2, Cache: c}), sw)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for line := range NewRunner(RunnerOptions{Workers: workers, Cache: c}).StreamSweep(context.Background(), sw) {
					if !line.Result.Cached || line.Err != nil {
						b.Fatalf("cell %d: cached=%v err=%v", line.Result.Index, line.Result.Cached, line.Err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			cells := float64(b.N * sw.Len())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/cells, "µs/cell")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/cells, "allocs/cell")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/cells, "B/cell")
		})
	}
}

// BenchmarkStreamSweepCold is the cold counterpart of
// BenchmarkStreamSweepWarm: the same 600-cell grid through a fresh
// Runner per request, but each request against a fresh, empty map
// cache, so every cell is verified — the reliable cells on the
// explicit engine, the drop and delay cells on the Simulation engine.
//
//	go test ./internal/engine -run '^$' -bench StreamSweepCold -benchtime 20x
func BenchmarkStreamSweepCold(b *testing.B) {
	sw, err := DecodeSweep(benchShapedGrid(200))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for line := range NewRunner(RunnerOptions{Workers: workers, Cache: newMapCache()}).StreamSweep(context.Background(), sw) {
					if line.Result.Cached || line.Err != nil {
						b.Fatalf("cell %d: cached=%v err=%v", line.Result.Index, line.Result.Cached, line.Err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			cells := float64(b.N * sw.Len())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/cells, "µs/cell")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/cells, "B/cell")
		})
	}
}
