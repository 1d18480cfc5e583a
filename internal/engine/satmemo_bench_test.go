package engine_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sat"
)

// satCheckDoc is a scenario of the shape the repo benchmark's sat-check
// workload posts: the optimized encoding at 3p/2v/4val/4st/2msg with
// bitwidth 3, made distinct by its solver's rand_seed.
func satCheckDoc(seed int) []byte {
	return fmt.Appendf(nil, `{"version":1,"name":"sat-consensus/r%d","model":{"kind":"mca-model","spec":{"encoding":"optimized","scope":{"pnodes":3,"vnodes":2,"values":4,"states":4,"msgs":2,"int_bitwidth":3}}},"solver":{"rand_seed":%d}}`, seed, seed)
}

// BenchmarkSATCheck is sat-check in process: each iteration decodes a
// document with a fresh rand_seed, as the service does, and checks it
// on the serial SAT engine. The first iteration may translate; the rest
// copy the process's translation. Random polarity is off, so the seed
// does not steer the search: every check must be a counterexample found
// after exactly 546 conflicts and 329,637 propagations.
func BenchmarkSATCheck(b *testing.B) {
	var translate, solve time.Duration
	for i := 0; i < b.N; i++ {
		s, err := engine.DecodeScenario(satCheckDoc(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		r := engine.SAT{}.Verify(context.Background(), s)
		if r.Status != engine.StatusViolated || r.SATStatus != sat.StatusSat || r.Stats.Conflicts != 546 || r.Stats.Propagations != 329637 {
			b.Fatalf("check %d: %v/%v after %d conflicts and %d propagations, want violated/SAT after 546 and 329637 (err %v)",
				i, r.Status, r.SATStatus, r.Stats.Conflicts, r.Stats.Propagations, r.Err)
		}
		translate += r.Stats.TranslateTime
		solve += r.Stats.SolveTime
	}
	b.ReportMetric(float64(translate.Microseconds())/1e3/float64(b.N), "translate-ms/op")
	b.ReportMetric(float64(solve.Microseconds())/1e3/float64(b.N), "solve-ms/op")
}
