package fleet_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/fleet"
)

// sweepLines streams sw through r and returns each cell's line, by cell
// index.
func sweepLines(t *testing.T, r *engine.Runner, sw *engine.Sweep) []string {
	t.Helper()
	lines := make([]string, sw.Len())
	for line := range r.StreamSweep(context.Background(), sw) {
		if line.Err != nil {
			t.Fatal(line.Err)
		}
		lines[line.Result.Index] = string(line.Data)
	}
	return lines
}

// newCache is an in-memory result cache.
func newCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Options{Capacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCoordinatorSweepSendsHeldBytes pins the coordinator's sweep path:
// a coordinator with a cache streams a decoded sweep — where each cell's
// unit is spliced around the canonical bytes the sweep holds — and its
// lines equal a standalone Runner's byte for byte, for
// every engine kind and for cell names that need escaping. The workers
// record the units they receive, one per line of each request body:
// every cell reaches one exactly once, as the unit
// fleet.EncodeWorkUnit writes for it.
func TestCoordinatorSweepSendsHeldBytes(t *testing.T) {
	sw := decodeGrid(t, 8, awkwardName)
	cells := map[string]*engine.Scenario{}
	scenarios := sw.Scenarios()
	for i := range scenarios {
		cells[scenarios[i].Name] = &scenarios[i]
	}
	for _, eng := range []engine.Engine{engine.Auto{}, engine.Explicit{}, engine.Simulation{Runs: 4, Seed: 9}, engine.SAT{}} {
		t.Run(fmt.Sprintf("%T", eng), func(t *testing.T) {
			want := sweepLines(t, engine.NewRunner(engine.RunnerOptions{Workers: 2, Engine: eng}), sw)

			var mu sync.Mutex
			var units [][]byte
			urls := make([]string, 2)
			for i := range urls {
				inner := fleet.NewWorker(fleet.WorkerOptions{Slots: 2}).Handler()
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/fleet/work" {
						body, err := io.ReadAll(r.Body)
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						units = append(units, bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))...)
						mu.Unlock()
						r.Body = io.NopCloser(bytes.NewReader(body))
					}
					inner.ServeHTTP(w, r)
				}))
				t.Cleanup(srv.Close)
				urls[i] = srv.URL
			}
			coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls, Cache: newCache(t)})
			if err != nil {
				t.Fatal(err)
			}
			got := sweepLines(t, coord.Runner(context.Background(), eng), sw)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cell %d:\n got %s\nwant %s", i, got[i], want[i])
				}
			}

			mu.Lock()
			defer mu.Unlock()
			if st := coord.Stats(); st.LocalFallbacks != 0 || st.Retries != 0 || len(units) != sw.Len() {
				t.Fatalf("stats %+v, %d units received: want each of %d cells dispatched once", st, len(units), sw.Len())
			}
			seen := map[string]bool{}
			for _, unit := range units {
				index, _, s, err := fleet.DecodeWorkUnit(unit)
				if err != nil {
					t.Fatal(err)
				}
				cell, ok := cells[s.Name]
				if !ok || seen[s.Name] {
					t.Fatalf("unit for %q: unknown or repeated cell", s.Name)
				}
				seen[s.Name] = true
				if ref, err := fleet.EncodeWorkUnit(index, eng, cell); err != nil || string(ref) != string(unit) {
					t.Fatalf("cell %q sent as\n %s\nwant\n %s (%v)", s.Name, unit, ref, err)
				}
			}
		})
	}
}

// oldResultFormat rewrites a worker's reply into the format workers
// wrote before result lines stopped carrying measured times: each line's
// stats closing with its "wall_ns".
func oldResultFormat(reply []byte) []byte {
	return regexp.MustCompile(`("stats":\{[^}]*)\}`).ReplaceAll(reply, []byte(`$1,"wall_ns":1234567}`))
}

// TestMixedVersionFleet: one of two workers answers in the old result
// format. A current coordinator refuses those replies like damaged
// ones — each a failed dispatch, counted against that worker — and the
// sweep still completes through retries and local fallback, line for
// line what a standalone Runner writes.
func TestMixedVersionFleet(t *testing.T) {
	sw := decodeGrid(t, 8, "mca")
	want := sweepLines(t, engine.NewRunner(engine.RunnerOptions{Workers: 2}), sw)

	good := httptest.NewServer(fleet.NewWorker(fleet.WorkerOptions{Slots: 2}).Handler())
	t.Cleanup(good.Close)
	var replies, altered atomic.Int64
	inner := fleet.NewWorker(fleet.WorkerOptions{Slots: 2}).Handler()
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fleet/work" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			replies.Add(1)
			if aged := oldResultFormat(body); !bytes.Equal(aged, body) {
				altered.Add(1)
				body = aged
			}
		}
		// An old worker seals what it sends, so the checksum holds.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Fleet-Checksum", engine.Digest(body))
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(old.Close)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{good.URL, old.URL}, Cache: newCache(t)})
	if err != nil {
		t.Fatal(err)
	}
	fleet.UseFakeClock(coord)
	got := sweepLines(t, coord.Runner(context.Background(), nil), sw)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	st := coord.Stats()
	if replies.Load() == 0 || altered.Load() != replies.Load() {
		t.Fatalf("old worker sent %d replies, %d in the old format: want some, all old", replies.Load(), altered.Load())
	}
	if f := st.Workers[1].Failures; f != uint64(replies.Load()) {
		t.Fatalf("stats %+v: old worker has %d failures, want one per reply (%d)", st, f, replies.Load())
	}
	if st.Workers[0].Failures != 0 || st.Completed != st.Workers[0].Completed || st.Completed+st.LocalFallbacks != uint64(sw.Len()) {
		t.Fatalf("stats %+v: want every cell completed by the current worker or locally", st)
	}
}

// localOnly is a custom engine: it has no spec, so no worker can
// rebuild it.
type localOnly struct{ engine.Explicit }

// TestCustomEngineSweepRunsLocally: a sweep holds canonical bytes for
// every cell, but a custom engine has no spec to put beside them, so
// each cell is verified on the coordinator and none is dispatched.
func TestCustomEngineSweepRunsLocally(t *testing.T) {
	sw := decodeGrid(t, 2, "mca")
	eng := localOnly{}
	want := sweepLines(t, engine.NewRunner(engine.RunnerOptions{Workers: 2, Engine: eng}), sw)
	urls := startWorkers(t, 1, func(int) *fleet.Worker { return fleet.NewWorker(fleet.WorkerOptions{Slots: 2}) })
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	got := sweepLines(t, coord.Runner(context.Background(), eng), sw)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if st := coord.Stats(); st.Dispatches != 0 || st.LocalFallbacks != uint64(sw.Len()) {
		t.Fatalf("stats %+v: want every cell verified locally, none dispatched", st)
	}
}
