package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
)

// TestChaosAndBreakerMetricsExposed arms a chaos-injecting coordinator
// over a clean worker and pins the observability surface: the sweep
// still completes, and /metrics reports the per-worker breaker state,
// the breaker fast-fail counter, the chaos injection counters, and the
// cache corruption-quarantine counter — the rows an operator watches
// during a chaos run.
func TestChaosAndBreakerMetricsExposed(t *testing.T) {
	wc, err := cache.New(cache.Options{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	workerSrv, _ := startRole(t, serverConfig{Role: "worker", Cache: wc, FleetSlots: 2})

	// Slow-only injection: every dispatch is delayed deterministically
	// but none fail, so the sweep outcome is untouched while the
	// injection counters are guaranteed to move.
	in := chaos.New(chaos.Config{Seed: 7, Slow: 1, SlowMax: time.Millisecond})
	coordSrv, _ := startRole(t, serverConfig{
		Role: "coordinator", Peers: []string{workerSrv.URL}, Chaos: in,
	})

	lines, sum := sweepNDJSON(t, coordSrv.URL, sweepRequest)
	if len(lines) == 0 || sum.Holds+sum.Violated+sum.Inconclusive != len(lines) {
		t.Fatalf("chaos-armed sweep incomplete: %d lines, summary %+v", len(lines), sum)
	}

	_, body := getBody(t, coordSrv.URL+"/metrics")
	for _, want := range []string{
		`mcaserved_fleet_worker_breaker{worker="` + workerSrv.URL + `",state="closed"} 1`,
		`mcaserved_fleet_worker_breaker{worker="` + workerSrv.URL + `",state="open"} 0`,
		`mcaserved_fleet_worker_breaker{worker="` + workerSrv.URL + `",state="half_open"} 0`,
		`mcaserved_fleet_dispatch_total{kind="breaker_fast_fail"} 0`,
		`mcaserved_chaos_injections_total{site="fleet.dispatch",kind="slow"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("coordinator /metrics missing %q:\n%s", want, body)
		}
	}
	if in.Counts()["fleet.dispatch/slow"] == 0 {
		t.Fatal("slow injection never fired")
	}

	// The worker's cache tier exposes the quarantine counter even when
	// nothing has been quarantined — dashboards need the zero row.
	_, workerBody := getBody(t, workerSrv.URL+"/metrics")
	if !strings.Contains(workerBody, `mcaserved_cache_operations_total{kind="corrupt_quarantined"} 0`) {
		t.Fatalf("worker /metrics missing quarantine counter:\n%s", workerBody)
	}
}
