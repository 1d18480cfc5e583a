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

// oneSlotWorker admits one /fleet/work request at a time and answers
// the rest 429, as a worker restarted with -fleetslots 1 does. An
// admitted unit waits briefly for a second one to arrive before it
// runs, so a coordinator that offers it more than one unit at a time
// is caught at every batch, not only when two units happen to overlap.
func oneSlotWorker() http.Handler {
	inner := fleet.NewWorker(fleet.WorkerOptions{Slots: 1}).Handler()
	var busy atomic.Int64
	arrived := make(chan struct{}, 1)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fleet/work" {
			inner.ServeHTTP(w, r)
			return
		}
		if busy.Add(1) > 1 {
			busy.Add(-1)
			select {
			case arrived <- struct{}{}:
			default:
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, "at capacity", http.StatusTooManyRequests)
			return
		}
		defer busy.Add(-1)
		select {
		case <-arrived:
		case <-time.After(20 * time.Millisecond):
		}
		inner.ServeHTTP(w, r)
	})
}

// TestRestartedWorkerCreditIsRelearned: a worker learned at 4 slots
// restarts on the same URL with 1. The 429s of the next batch make the
// coordinator ask it again, and the tokens above 1 retire as they come
// back — so within two batches its credit is 1, and every later batch
// completes byte-identically without one rejection. A credit learned
// once per coordinator lifetime stayed at 4, and every batch met 429s.
func TestRestartedWorkerCreditIsRelearned(t *testing.T) {
	scenarios := fleetScenarios()[:4]
	baseResults, baseSum := runnerBaseline(t, scenarios)
	want := encodeSummary(t, baseSum)

	var handler atomic.Pointer[http.Handler]
	before := fleet.NewWorker(fleet.WorkerOptions{Slots: 4}).Handler()
	handler.Store(&before)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	fleet.UseFakeClock(coord)
	ctx := context.Background()
	coord.Run(ctx, nil, scenarios)
	if c := fleet.Credit(coord, srv.URL); c != 4 {
		t.Fatalf("credit %d before the restart, want the 4 slots advertised", c)
	}

	after := oneSlotWorker()
	handler.Store(&after)
	for batch := 0; batch < 5; batch++ {
		rejected := coord.Stats().Rejections
		results, sum := coord.Run(ctx, nil, scenarios)
		if got := encodeSummary(t, sum); got != want {
			t.Fatalf("batch %d summary diverged:\n got %s\nwant %s", batch, got, want)
		}
		for i := range results {
			if got, want := encodeResult(t, results[i]), encodeResult(t, baseResults[i]); got != want {
				t.Fatalf("batch %d result %d diverged:\n got %s\nwant %s", batch, i, got, want)
			}
		}
		if batch == 0 {
			if coord.Stats().Rejections == rejected {
				t.Fatal("the first batch after the restart met no rejections: the test worker did not see the old credit")
			}
			continue
		}
		if c := fleet.Credit(coord, srv.URL); c != 1 {
			t.Fatalf("credit %d after batch %d, want the 1 slot the restarted worker advertises", c, batch)
		}
		if n := coord.Stats().Rejections - rejected; n != 0 {
			t.Fatalf("batch %d met %d rejections, want none at the relearned credit", batch, n)
		}
	}
}

// rejectFirst answers the first /fleet/work request 429 and passes
// every other request to inner.
func rejectFirst(inner http.Handler) http.Handler {
	var seen atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fleet/work" && !seen.Swap(true) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "at capacity", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	})
}

// TestRegrownCreditCancelsSurplus: a worker learned at 4 slots restarts
// with 1, and restarts again with 4. The shrink's surplus stays pooled
// until a token is next drawn, and that draw retires it, so no dispatch
// rides on surplus credit; the regrown credit then fills the pool to
// exactly 4 tokens for the worker, never over-filled, and the next
// batch completes byte-identically without a rejection. (Surplus still
// out on a dispatch when the credit regrows is cancelled instead:
// TestRegrowCancelsOutstandingSurplus.)
func TestRegrownCreditCancelsSurplus(t *testing.T) {
	scenarios := fleetScenarios()[:4]
	baseResults, _ := runnerBaseline(t, scenarios)

	var handler atomic.Pointer[http.Handler]
	set := func(h http.Handler) { handler.Store(&h) }
	set(fleet.NewWorker(fleet.WorkerOptions{Slots: 4}).Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	fleet.UseFakeClock(coord)
	ctx := context.Background()
	credit := func(step string, want int) {
		t.Helper()
		if c, p := fleet.Credit(coord, srv.URL), fleet.Pooled(coord); c != want || p != want {
			t.Fatalf("%s: credit %d, %d tokens pooled, want %d", step, c, p, want)
		}
	}
	coord.Run(ctx, nil, scenarios)
	credit("learned", 4)

	// Restart with 1 slot: the batch meets 429s, and the next Runner
	// relearns 1 with 3 tokens of surplus still pooled.
	set(oneSlotWorker())
	coord.Run(ctx, nil, scenarios)
	coord.Run(ctx, nil, nil)
	credit("shrunk, nothing retired yet", 4)

	// Restart with 4 slots. One unit is rejected once, so the worker is
	// relearned again; its first draw retires the three surplus tokens.
	set(rejectFirst(fleet.NewWorker(fleet.WorkerOptions{Slots: 4}).Handler()))
	rejected := coord.Stats().Rejections
	if _, sum := coord.Run(ctx, nil, scenarios[:1]); sum.Inconclusive != 0 || coord.Stats().Rejections != rejected+1 {
		t.Fatalf("the one-unit batch: %d inconclusive, %d rejections, want 0 and 1", sum.Inconclusive, coord.Stats().Rejections-rejected)
	}
	credit("surplus retired on its first draw", 1)

	coord.Run(ctx, nil, nil)
	credit("regrown", 4)
	rejected = coord.Stats().Rejections
	results, _ := coord.Run(ctx, nil, scenarios)
	credit("after the regrown batch", 4)
	if n := coord.Stats().Rejections - rejected; n != 0 {
		t.Fatalf("the regrown batch met %d rejections, want none", n)
	}
	for i := range results {
		if got, want := encodeResult(t, results[i]), encodeResult(t, baseResults[i]); got != want {
			t.Fatalf("result %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}
}
