package fleet_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/fleet"
)

// TestConcurrentBatchesShareWorkerCredit pins credit-based dispatch:
// the coordinator offers a worker no more concurrent units than the
// slots it advertises on /fleet/health — across batches, not per batch
// — so a healthy fleet never 429s itself.
func TestConcurrentBatchesShareWorkerCredit(t *testing.T) {
	scenarios := fleetScenarios()
	_, baseSum := runnerBaseline(t, scenarios)
	want := encodeSummary(t, baseSum)

	// Each fake worker counts concurrent /fleet/work requests, and holds
	// its first ones until all its slots are in use at once — so the pin
	// is two-sided: the advertised credit is reached, and never exceeded.
	const slots = 2
	peaks := make([]atomic.Int64, 2)
	urls := make([]string, len(peaks))
	for i := range peaks {
		inner := fleet.NewWorker(fleet.WorkerOptions{Slots: slots}).Handler()
		var inFlight atomic.Int64
		var once sync.Once
		peak, full := &peaks[i], make(chan struct{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/fleet/work" {
				n := inFlight.Add(1)
				defer inFlight.Add(-1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if n == slots {
					once.Do(func() { close(full) })
				}
				select {
				case <-full:
				case <-time.After(10 * time.Second):
					t.Errorf("worker %d never saw %d concurrent units", i, slots)
				}
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sum := coord.Run(context.Background(), nil, scenarios)
			if got := encodeSummary(t, sum); got != want {
				t.Errorf("batch %d summary diverged:\n got %s\nwant %s", b, got, want)
			}
		}()
	}
	wg.Wait()

	st := coord.Stats()
	if st.Rejections != 0 || st.Retries != 0 || st.LocalFallbacks != 0 {
		t.Fatalf("stats %+v: a healthy fleet must not reject, retry or fall back", st)
	}
	if st.Completed != uint64(2*len(scenarios)) {
		t.Fatalf("stats %+v: want %d units completed remotely", st, 2*len(scenarios))
	}
	for i := range peaks {
		if p := peaks[i].Load(); p != slots {
			t.Fatalf("worker %d saw %d concurrent units at peak, advertised %d slots", i, p, slots)
		}
	}
}

// TestProbeAnsweredWith429ReadsHealthy: the breaker is the coordinator's
// one health view. Two failures open it, so the first batch's third
// attempt fails fast; the half-open probe the next batch makes after the
// cooldown is answered 429, which proves the worker alive and closes
// the breaker — so the worker reads healthy at once. (A failure count
// kept beside the breaker used to leave it unhealthy until some
// dispatch succeeded.)
func TestProbeAnsweredWith429ReadsHealthy(t *testing.T) {
	inner := fleet.NewWorker(fleet.WorkerOptions{Slots: 1}).Handler()
	var works atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fleet/work" {
			inner.ServeHTTP(w, r)
			return
		}
		if works.Add(1) <= 2 {
			http.Error(w, "sick", http.StatusInternalServerError)
			return
		}
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	t.Cleanup(srv.Close)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	clock := fleet.UseFakeClock(coord)
	coord.Run(context.Background(), nil, fleetScenarios()[:1])
	st := coord.Stats()
	if works.Load() != 2 || st.BreakerFastFails != 1 || st.LocalFallbacks != 1 || st.Workers[0].Breaker != "open" {
		t.Fatalf("stats %+v after %d dispatches: want fail, fail, fast-fail, local fallback", st, works.Load())
	}
	clock.Advance(fleet.Cooldown)
	coord.Run(context.Background(), nil, fleetScenarios()[:1])
	st = coord.Stats()
	if works.Load() != 5 || st.Rejections != 3 || st.LocalFallbacks != 2 {
		t.Fatalf("stats %+v after %d dispatches: want 429 on the probe, two more 429s, local fallback", st, works.Load())
	}
	if w := st.Workers[0]; w.Breaker != "closed" || !w.Healthy {
		t.Fatalf("worker %+v: a probe answered 429 must leave it closed and healthy", w)
	}
}

// TestWorkerCachedResultStoredUncached: a worker that answers from its
// own cache returns "cached":true, but what the coordinator's cache
// keeps is the verdict as computed — so its next pass is byte-identical
// to a Runner hitting its own cache, and dispatches nothing.
func TestWorkerCachedResultStoredUncached(t *testing.T) {
	scenarios := fleetScenarios()
	ctx := context.Background()
	newCache := func() *cache.Cache {
		c, err := cache.New(cache.Options{Capacity: 256})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// The reference: a Runner warming and then hitting its own cache.
	runnerCache := newCache()
	runner := engine.NewRunner(engine.RunnerOptions{Workers: 4, Cache: runnerCache})
	runner.Run(ctx, scenarios)
	wantResults, wantSum := runner.Run(ctx, scenarios)

	// A worker whose cache already holds every verdict.
	workerCache := newCache()
	engine.NewRunner(engine.RunnerOptions{Workers: 4, Cache: workerCache}).Run(ctx, scenarios)
	urls := startWorkers(t, 1, func(int) *fleet.Worker {
		return fleet.NewWorker(fleet.WorkerOptions{Slots: 2, Cache: workerCache})
	})
	coordCache := newCache()
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls, Cache: coordCache})
	if err != nil {
		t.Fatal(err)
	}

	first, firstSum := coord.Run(ctx, nil, scenarios)
	conclusive := firstSum.Holds + firstSum.Violated
	if firstSum.CacheHits != conclusive {
		t.Fatalf("first pass: %d cache hits, want %d served by the worker's cache", firstSum.CacheHits, conclusive)
	}
	for i := range first {
		if first[i].Status != engine.StatusHolds && first[i].Status != engine.StatusViolated {
			continue
		}
		key, err := engine.CacheKey(&scenarios[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		stored, ok := coordCache.Get(key)
		if !ok || stored.Cached {
			t.Fatalf("scenario %d: coordinator cache entry ok=%v cached=%v, want an uncached-shape entry", i, ok, stored.Cached)
		}
		if ref, _ := runnerCache.Get(key); encodeResult(t, stored) != encodeResult(t, ref) {
			t.Fatalf("scenario %d: stored entry differs from a Runner's:\n got %s\nwant %s",
				i, encodeResult(t, stored), encodeResult(t, ref))
		}
	}

	completed := coord.Stats().Completed
	second, secondSum := coord.Run(ctx, nil, scenarios)
	if got, want := encodeSummary(t, secondSum), encodeSummary(t, wantSum); got != want {
		t.Fatalf("second pass summary diverged from a Runner hit pass:\n got %s\nwant %s", got, want)
	}
	for i := range second {
		if got, want := encodeResult(t, second[i]), encodeResult(t, wantResults[i]); got != want {
			t.Fatalf("second pass result %d diverged from a Runner hit:\n got %s\nwant %s", i, got, want)
		}
	}
	if extra := coord.Stats().Completed - completed; extra != uint64(len(scenarios)-conclusive) {
		t.Fatalf("second pass dispatched %d units, want only the %d inconclusive ones", extra, len(scenarios)-conclusive)
	}
}

// TestDispatchReusesConnections: the coordinator's default client keeps
// as many idle connections per worker as the credit it may dispatch at,
// so three batches at a credit of 8 never close a connection and dial
// about one per slot. With Go's default of two idle connections per
// host, every batch closed and re-dialed most of them.
//
// The dial count is bounded loosely: net/http puts a connection back in
// its idle pool on a goroutine of its own after the body's EOF, so a
// dispatch that starts in that window dials one more (the pool then
// keeps it). Closes are the exact signal.
func TestDispatchReusesConnections(t *testing.T) {
	scenarios := fleetScenarios()
	var dials, closes atomic.Int64
	srv := httptest.NewUnstartedServer(fleet.NewWorker(fleet.WorkerOptions{Slots: 8}).Handler())
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			dials.Add(1)
		case http.StateClosed, http.StateHijacked:
			closes.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		if _, sum := coord.Run(context.Background(), nil, scenarios); sum.Total != len(scenarios) {
			t.Fatalf("batch %d: summary %+v", b, sum)
		}
	}
	if st := coord.Stats(); st.LocalFallbacks != 0 || st.Retries != 0 {
		t.Fatalf("stats %+v: a healthy worker must answer every unit", st)
	}
	if n := closes.Load(); n != 0 {
		t.Errorf("three batches of %d units closed %d connections, want 0", len(scenarios), n)
	}
	if n := dials.Load(); n > 16 {
		t.Errorf("three batches of %d units opened %d connections, want about 9", len(scenarios), n)
	}
}
