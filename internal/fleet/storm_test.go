package fleet_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
)

// TestCoordinatorSurvivesRetryAfterStorm drives the coordinator through
// an admission storm: the worker 429s its first several requests with a
// hostile Retry-After of 9999 seconds. The pin is threefold — the sweep
// still completes byte-identically to the Runner, the hint is honored
// only up to the 2s backoff clamp (every wait the coordinator asks its
// clock for is exactly 2s), and 429s count as rejections, never as
// worker failures that would trip the breaker.
func TestCoordinatorSurvivesRetryAfterStorm(t *testing.T) {
	scenarios := fleetScenarios()[:4]
	_, baseSum := runnerBaseline(t, scenarios)
	want := encodeSummary(t, baseSum)

	const stormLen = 3
	var served atomic.Int64
	inner := fleet.NewWorker(fleet.WorkerOptions{Slots: 2}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Only dispatches are stormed: the coordinator's credit probe
		// (GET /fleet/health) must not eat a storm slot.
		if r.URL.Path == "/fleet/work" && served.Add(1) <= stormLen {
			w.Header().Set("Retry-After", "9999")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	clock := fleet.UseFakeClock(coord)
	_, sum := coord.Run(context.Background(), nil, scenarios)

	if got := encodeSummary(t, sum); got != want {
		t.Fatalf("summary diverged after the storm:\n got %s\nwant %s", got, want)
	}
	st := coord.Stats()
	if st.Rejections != stormLen {
		t.Fatalf("stats %+v: want %d rejections", st, stormLen)
	}
	// Every retry follows a stormed 429, so every wait is its hint: an
	// unclamped 9999s would park the unit for hours, and the 50ms
	// backoff must not win over it either. A unit whose last attempt
	// was stormed goes local instead of waiting.
	waits := clock.Waits()
	for i, d := range waits {
		if d != 2*time.Second {
			t.Fatalf("wait %d is %v: Retry-After 9999 must wait exactly the 2s cap, never more", i, d)
		}
	}
	if uint64(len(waits)) != st.Retries || st.Retries+st.LocalFallbacks != stormLen {
		t.Fatalf("stats %+v with %d waits: want one wait per retried 429, a local fallback per other", st, len(waits))
	}
	if st.Drained != 0 {
		t.Fatalf("stats %+v: storm dropped units", st)
	}
	// 429s are admission, not sickness: the breaker must still be closed
	// and the worker healthy.
	for _, w := range st.Workers {
		if !w.Healthy || w.Breaker != "closed" {
			t.Fatalf("worker after storm: %+v (429s must not dent health)", w)
		}
	}
	if sum.Holds+sum.Violated+sum.Inconclusive != len(scenarios) {
		t.Fatalf("summary %+v does not cover the batch", sum)
	}
}
