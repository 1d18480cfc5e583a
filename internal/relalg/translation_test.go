package relalg

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sat"
)

// pigeons is the relational pigeonhole problem: every pigeon sits in
// exactly one hole and no hole holds two pigeons. It is satisfiable
// when holes ≥ pigeons and needs a real search to refute otherwise.
func pigeons(n, holes int) (*Bounds, Formula) {
	var names []string
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("p%d", i))
	}
	for i := 0; i < holes; i++ {
		names = append(names, fmt.Sprintf("h%d", i))
	}
	u := NewUniverse(names...)
	b := NewBounds(u)
	pigeon, hole, in := NewRelation("pigeon", 1), NewRelation("hole", 1), NewRelation("in", 2)
	b.BoundExactly(pigeon, SingleTuples(u, names[:n]...))
	b.BoundExactly(hole, SingleTuples(u, names[n:]...))
	upper := NewTupleSet(u, 2)
	for i := 0; i < n; i++ {
		for j := n; j < n+holes; j++ {
			upper.Add(Tuple{i, j})
		}
	}
	b.BoundUpper(in, upper)
	p, h := NewVar("p"), NewVar("h")
	return b, And(
		ForAll(p, R(pigeon), One(Join(V(p), R(in)))),
		ForAll(h, R(hole), Lone(Join(R(in), V(h)))),
	)
}

// translationOptions sets each sat.Options field away from its default.
var translationOptions = []sat.Options{
	{},
	{DisableVSIDS: true},
	{DisableRestarts: true},
	{DisablePhaseSaving: true},
	{MaxConflicts: 5},
	{InvertPhase: true},
	{RestartBase: 3},
	{RandSeed: 7},
	{RandomPolarityFreq: 0.4},
	{RandSeed: 7, RandomPolarityFreq: 0.4},
}

// Every search of a Translation equals Solve's on the same problem and
// options: status, every solver counter, translation size and the
// instance, on an UNSAT and a SAT problem, however often one
// translation is solved.
func TestTranslationSolveMatchesSolve(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, holes int
		want     sat.Status
	}{
		{"unsat/6in5", 6, 5, sat.StatusUnsat},
		{"sat/5in5", 5, 5, sat.StatusSat},
	} {
		b, f := pigeons(tc.n, tc.holes)
		tr := Translate(b, f)
		for pass := 0; pass < 2; pass++ {
			for _, opts := range translationOptions {
				name := fmt.Sprintf("%s/%+v/pass%d", tc.name, opts, pass)
				want := Solve(&Problem{Bounds: b, Formula: f, SolverOptions: opts})
				got := tr.Solve(opts, 0, nil)
				if got.Status != want.Status {
					t.Fatalf("%s: %v, Solve %v", name, got.Status, want.Status)
				}
				if opts.MaxConflicts == 0 && got.Status != tc.want {
					t.Errorf("%s: %v, want %v", name, got.Status, tc.want)
				}
				if got.SolverStats != want.SolverStats {
					t.Errorf("%s: solver stats %+v, Solve %+v", name, got.SolverStats, want.SolverStats)
				}
				gs, ws := got.Stats, want.Stats
				gs.TranslateTime, gs.SolveTime, ws.TranslateTime, ws.SolveTime = 0, 0, 0, 0
				if gs != ws {
					t.Errorf("%s: translation stats %+v, Solve %+v", name, gs, ws)
				}
				if (got.Instance == nil) != (want.Instance == nil) {
					t.Fatalf("%s: instance %v, Solve %v", name, got.Instance, want.Instance)
				}
				for _, r := range b.Relations() {
					if got.Instance != nil && !got.Instance.Get(r).Equal(want.Instance.Get(r)) {
						t.Errorf("%s: %s = %v, Solve %v", name, r.Name, got.Instance.Get(r), want.Instance.Get(r))
					}
				}
			}
		}
		if tc.want == sat.StatusUnsat {
			if r := tr.Solve(sat.Options{}, 0, nil); r.SolverStats.Conflicts < 10 {
				t.Errorf("%s: %d conflicts; the problem must need a search", tc.name, r.SolverStats.Conflicts)
			}
		}
	}
}

// The portfolio path races on the kept translation's CNF and finds the
// same verdict, from several goroutines at once.
func TestTranslationSolveConcurrent(t *testing.T) {
	b, f := pigeons(6, 5)
	tr := Translate(b, f)
	want := tr.Solve(sat.Options{}, 0, nil)
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workers := 0
			if i%2 == 1 {
				workers = 2
			}
			r := tr.Solve(sat.Options{}, workers, nil)
			if r.Status != sat.StatusUnsat {
				t.Errorf("solve %d (workers %d): %v, want UNSAT", i, workers, r.Status)
			}
			if workers == 0 && r.SolverStats != want.SolverStats {
				t.Errorf("solve %d: stats %+v, first %+v", i, r.SolverStats, want.SolverStats)
			}
		}()
	}
	wg.Wait()
}
