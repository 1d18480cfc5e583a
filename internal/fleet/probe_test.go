package fleet_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/fleet"
)

// TestCancelledProbeDoesNotWedgeBreaker: a sweep cancelled while its
// dispatch is the half-open probe must leave the breaker electable. The
// worker fails twice (breaker opens), then holds the probe until its
// batch is cancelled, then serves normally — and the next batch has to
// reach it. A breaker left half-open answers every later dispatch with
// a fast-fail, so the healthy worker would never see another unit.
func TestCancelledProbeDoesNotWedgeBreaker(t *testing.T) {
	scenarios := fleetScenarios()[:1]

	const (
		failing = iota
		holding
		serving
	)
	var mode atomic.Int32
	held, release := make(chan struct{}, 1), make(chan struct{})
	inner := fleet.NewWorker(fleet.WorkerOptions{Slots: 1}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fleet/work" {
			switch mode.Load() {
			case failing:
				http.Error(w, "sick", http.StatusInternalServerError)
				return
			case holding:
				held <- struct{}{}
				<-release
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	clock := fleet.UseFakeClock(coord)
	breakerState := func() string { return coord.Stats().Workers[0].Breaker }

	coord.Run(context.Background(), nil, scenarios)
	if got := breakerState(); got != "open" {
		t.Fatalf("after the failed dispatches the breaker is %s, want open", got)
	}

	mode.Store(holding)
	clock.Advance(fleet.Cooldown)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		coord.Run(ctx, nil, scenarios)
	}()
	<-held
	if got := breakerState(); got != "half_open" {
		t.Fatalf("with the probe on the worker the breaker is %s, want half_open", got)
	}
	cancel()
	<-done
	close(release)

	mode.Store(serving)
	_, sum := coord.Run(context.Background(), nil, scenarios)
	st := coord.Stats()
	if w := st.Workers[0]; w.Completed != 1 || w.Breaker != "closed" {
		t.Fatalf("the batch after the cancelled probe never reached the worker: %+v (stats %+v)", w, st)
	}
	if sum.Holds+sum.Violated != len(scenarios) {
		t.Fatalf("summary %+v: the unit was not verified", sum)
	}
}
