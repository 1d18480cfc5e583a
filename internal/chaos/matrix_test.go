package chaos_test

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"

	"net/http/httptest"
)

// matrixScenarios is the chaos acceptance batch: policy × topology ×
// fault cells spanning holds, violations, and both the explicit and
// the simulation engine — small enough to verify many times, varied
// enough that a fault-induced wrong verdict cannot hide.
func matrixScenarios() []engine.Scenario {
	utilities := []mca.Utility{
		mca.SubmodularResidual{}, mca.NonSubmodularSynergy{}, mca.FlatUtility{},
	}
	graphs := map[string]*graph.Graph{
		"complete2": graph.Complete(2),
		"line3":     graph.Line(3),
	}
	var out []engine.Scenario
	for _, u := range utilities {
		for gname, g := range graphs {
			n := g.N()
			specs := make([]mca.Config, n)
			for i := 0; i < n; i++ {
				base := []int64{int64(10 + 5*(i%2)), int64(15 - 5*(i%2))}
				specs[i] = mca.Config{
					ID: mca.AgentID(i), Items: 2, Base: base,
					Policy: mca.Policy{Target: 2, Utility: u, ReleaseOutbid: true, Rebid: mca.RebidOnChange},
				}
			}
			faults := netsim.Faults{}
			if gname == "line3" && u.Name() == (mca.FlatUtility{}).Name() {
				faults = netsim.Faults{Drop: 0.25} // one simulation-engine cell
			}
			out = append(out, engine.Scenario{
				Name:       fmt.Sprintf("%s/%s", u.Name(), gname),
				AgentSpecs: specs,
				Graph:      g,
				Explore:    explore.Options{MaxStates: 30000},
				Faults:     faults,
			})
		}
	}
	return out
}

func summaryBytes(t *testing.T, sum engine.Summary) string {
	t.Helper()
	sum.Wall = 0
	data, err := engine.EncodeSummary(&sum)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// fullFaultMix is the matrix's injector profile: every transport fault
// model armed at once, aggressively enough that every schedule injects
// (asserted below) while retry + breaker + fallback still converge.
func fullFaultMix(seed int64) chaos.Config {
	return chaos.Config{
		Seed:  seed,
		Crash: 0.15,
		Hang:  0.05,
		Slow:  0.2, SlowMax: 10 * time.Millisecond,
		Truncate: 0.1,
		Corrupt:  0.1,
		Storm:    0.04, StormLen: 2,
	}
}

// TestChaosMatrixCoordinatorMatchesRunner is the headline robustness
// pin: under every seeded fault schedule — worker crashes, hangs, slow
// responses, truncated and bit-flipped bodies, 429/503 storms — a
// coordinator+workers sweep completes with results and a summary
// byte-identical to the clean single-process Runner, at 1, 2, and 4
// workers. Faults may cost retries, fast-fails, and local fallbacks;
// they must never cost a verdict.
func TestChaosMatrixCoordinatorMatchesRunner(t *testing.T) {
	scenarios := matrixScenarios()
	baseResults, baseSum := engine.NewRunner(engine.RunnerOptions{Workers: 4}).Run(context.Background(), scenarios)
	want := summaryBytes(t, baseSum)

	var totalInjections uint64
	for seed := int64(1); seed <= 5; seed++ {
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, n), func(t *testing.T) {
				urls := make([]string, n)
				for i := 0; i < n; i++ {
					srv := httptest.NewServer(fleet.NewWorker(fleet.WorkerOptions{Slots: 2}).Handler())
					t.Cleanup(srv.Close)
					urls[i] = srv.URL
				}
				in := chaos.New(fullFaultMix(seed))
				coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{
					Workers:     urls,
					Client:      &http.Client{Transport: in.Transport("fleet.dispatch", nil)},
					UnitTimeout: time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				results, sum := coord.Run(context.Background(), nil, scenarios)
				if got := summaryBytes(t, sum); got != want {
					t.Fatalf("summary diverged under chaos:\n got %s\nwant %s", got, want)
				}
				for i := range results {
					got, err := engine.EncodeResult(&results[i])
					want, wantErr := engine.EncodeResult(&baseResults[i])
					if err != nil || wantErr != nil || string(got) != string(want) {
						t.Fatalf("result %d diverged under chaos:\n got %s\nwant %s (%v, %v)", i, got, want, err, wantErr)
					}
				}
				if st := coord.Stats(); st.Drained != 0 {
					t.Fatalf("stats %+v: chaos dropped units", st)
				}
				for _, v := range in.Counts() {
					totalInjections += v
				}
			})
		}
	}
	if totalInjections == 0 {
		t.Fatal("the whole matrix injected nothing — the pin is vacuous")
	}
}
