package sat_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/mcamodel"
	"repro/internal/relalg"
	"repro/internal/sat"
)

// The trajectory panel pins the whole search of a few instances: every
// Stats counter and a digest of the model, on a fresh solver, on a
// Clone of an unsearched solver, and along a SolveAssuming sequence. A
// change to the solver's storage that keeps these lines made the same
// decisions, conflicts and propagations; only a change to the search
// itself may move them, and re-pins them in the change that says why.

// panelInstance is one formula of the panel and the options it is
// searched under.
type panelInstance struct {
	name string
	opts sat.Options
	load func(*sat.Solver)
}

// panel returns the pinned instances:
//   - sat-check: the consensus check of the repo benchmark's sat-check
//     workload (optimized encoding, 3p/2v/4val/4st/2msg, bitwidth 3),
//     emitted into the solver clause by clause by the relational
//     translator, as a SAT check does;
//   - php7/gc: PHP(8,7) with the glue tier at 1 and compaction at 1 %
//     waste, so reduceDB deletes and the arena is compacted;
//   - random3/gc: a satisfiable random 3-CNF under the same seams.
func panel(tb testing.TB) []panelInstance {
	tb.Helper()
	e, err := mcamodel.BuildOptimized(mcamodel.Scope{PNodes: 3, VNodes: 2, Values: 4, States: 4, Msgs: 2, IntBitwidth: 3})
	if err != nil {
		tb.Fatal(err)
	}
	check := relalg.And(e.Background, relalg.Not(e.Consensus))
	seams := sat.WithSeams(sat.Options{}, 1, 0.01)
	cnf := func(f *sat.CNF) func(*sat.Solver) {
		return func(s *sat.Solver) {
			if err := f.LoadInto(s); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return []panelInstance{
		{"sat-check", sat.Options{}, func(s *sat.Solver) {
			c := relalg.NewCircuit(s)
			c.Assert(relalg.NewTranslator(e.Bounds, c).TranslateFormula(check))
		}},
		{"php7/gc", seams, cnf(sat.PigeonholeCNF(7))},
		{"random3/gc", seams, cnf(random3CNF(200, 840, 5))},
	}
}

// random3CNF is a random 3-CNF of vars variables and clauses clauses
// from a xorshift stream seeded with seed, so its clauses are fixed by
// this file alone.
func random3CNF(vars, clauses int, seed uint64) *sat.CNF {
	f := &sat.CNF{NumVars: vars}
	x := seed*0x9e3779b97f4a7c15 | 1
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	for i := 0; i < clauses; i++ {
		var c []sat.Lit
		for len(c) < 3 {
			v := sat.Var(next(vars))
			if !slices.ContainsFunc(c, func(l sat.Lit) bool { return l.Var() == v }) {
				c = append(c, sat.MkLit(v, next(2) == 1))
			}
		}
		f.AddClause(c...)
	}
	return f
}

// panelQueries is the SolveAssuming sequence the assume mode runs on
// one solver: three assumption sets, then none.
var panelQueries = [][]sat.Lit{
	{sat.PosLit(0)},
	{sat.NegLit(0), sat.PosLit(1)},
	{sat.NegLit(1), sat.NegLit(2)},
	nil,
}

// trajectory renders what a search decided: its status, every Stats
// counter, and a digest of the model after a SAT answer.
func trajectory(st sat.Status, s *sat.Solver) string {
	model := "-"
	if st == sat.StatusSat {
		h := sha256.New()
		for _, b := range s.Model() {
			if b {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		model = hex.EncodeToString(h.Sum(nil)[:8])
	}
	x := s.Stats()
	return fmt.Sprintf("%v conflicts=%d decisions=%d props=%d restarts=%d learnt=%d deleted=%d glue=%d lbdsum=%d hist=%v gcs=%d model=%s",
		st, x.Conflicts, x.Decisions, x.Propagations, x.Restarts, x.Learnt, x.Deleted, x.GlueLearnt, x.LBDSum, x.LBDHist, x.ArenaGCs, model)
}

// panelGoldens are the trajectories, keyed by instance and mode; a
// Clone searches as a fresh solver does, so those two lines agree.
var panelGoldens = map[string][]string{
	"sat-check/fresh": {
		"SAT conflicts=546 decisions=8948 props=329637 restarts=4 learnt=546 deleted=0 glue=22 lbdsum=5855 hist=[0 22 90 57 29 33 27 288] gcs=0 model=4e9f9d7a5d52e649",
	},
	"sat-check/clone": {
		"SAT conflicts=546 decisions=8948 props=329637 restarts=4 learnt=546 deleted=0 glue=22 lbdsum=5855 hist=[0 22 90 57 29 33 27 288] gcs=0 model=4e9f9d7a5d52e649",
	},
	"sat-check/assume": {
		"UNSAT conflicts=0 decisions=0 props=3230 restarts=0 learnt=0 deleted=0 glue=0 lbdsum=0 hist=[0 0 0 0 0 0 0 0] gcs=0 model=-",
		"SAT conflicts=515 decisions=5919 props=220211 restarts=4 learnt=515 deleted=0 glue=16 lbdsum=5831 hist=[0 16 63 56 22 20 16 322] gcs=0 model=bba583267dc9cd90",
		"UNSAT conflicts=515 decisions=5919 props=220221 restarts=4 learnt=515 deleted=0 glue=16 lbdsum=5831 hist=[0 16 63 56 22 20 16 322] gcs=0 model=-",
		"SAT conflicts=515 decisions=6243 props=228318 restarts=4 learnt=515 deleted=0 glue=16 lbdsum=5831 hist=[0 16 63 56 22 20 16 322] gcs=0 model=bba583267dc9cd90",
	},
	"php7/gc/fresh": {
		"UNSAT conflicts=6856 decisions=8516 props=95360 restarts=30 learnt=6852 deleted=6011 glue=19 lbdsum=78521 hist=[0 19 69 137 210 301 405 5711] gcs=22 model=-",
	},
	"php7/gc/clone": {
		"UNSAT conflicts=6856 decisions=8516 props=95360 restarts=30 learnt=6852 deleted=6011 glue=19 lbdsum=78521 hist=[0 19 69 137 210 301 405 5711] gcs=22 model=-",
	},
	"php7/gc/assume": {
		"UNSAT conflicts=1392 decisions=1757 props=20668 restarts=8 learnt=1391 deleted=1044 glue=2 lbdsum=12235 hist=[0 2 13 40 89 155 186 906] gcs=8 model=-",
		"UNSAT conflicts=2435 decisions=3048 props=36511 restarts=14 learnt=2433 deleted=2174 glue=10 lbdsum=20826 hist=[0 10 32 96 175 272 318 1530] gcs=16 model=-",
		"UNSAT conflicts=6614 decisions=8248 props=91968 restarts=35 learnt=6610 deleted=6152 glue=10 lbdsum=67357 hist=[0 10 43 143 277 467 623 5047] gcs=34 model=-",
		"UNSAT conflicts=9570 decisions=11936 props=130125 restarts=49 learnt=9560 deleted=8986 glue=36 lbdsum=99064 hist=[0 36 96 241 399 631 793 7364] gcs=49 model=-",
	},
	"random3/gc/fresh": {
		"SAT conflicts=3711 decisions=4645 props=152998 restarts=18 learnt=3711 deleted=2892 glue=24 lbdsum=30742 hist=[0 24 135 228 289 404 433 2198] gcs=10 model=07addb41e50b4d7f",
	},
	"random3/gc/clone": {
		"SAT conflicts=3711 decisions=4645 props=152998 restarts=18 learnt=3711 deleted=2892 glue=24 lbdsum=30742 hist=[0 24 135 228 289 404 433 2198] gcs=10 model=07addb41e50b4d7f",
	},
	"random3/gc/assume": {
		"SAT conflicts=1845 decisions=2460 props=76369 restarts=12 learnt=1845 deleted=1428 glue=13 lbdsum=16892 hist=[0 13 62 93 142 151 151 1233] gcs=6 model=fbac96d59d5005cd",
		"SAT conflicts=1927 decisions=2597 props=79899 restarts=12 learnt=1927 deleted=1612 glue=13 lbdsum=17719 hist=[0 13 62 94 148 162 153 1295] gcs=7 model=f98656c9f90ce8e0",
		"SAT conflicts=1944 decisions=2653 props=80781 restarts=12 learnt=1944 deleted=1612 glue=15 lbdsum=17864 hist=[0 15 63 95 152 162 154 1303] gcs=7 model=17802acfde5c06cc",
		"SAT conflicts=1944 decisions=2690 props=80981 restarts=12 learnt=1944 deleted=1612 glue=15 lbdsum=17864 hist=[0 15 63 95 152 162 154 1303] gcs=7 model=17802acfde5c06cc",
	},
}

// newLoaded returns a solver with opts holding the instance's clauses.
func newLoaded(in panelInstance, opts sat.Options) *sat.Solver {
	s := sat.NewSolverWithOptions(opts)
	in.load(s)
	return s
}

// runPanel searches the instance in one mode and returns its lines.
func runPanel(in panelInstance, mode string) []string {
	switch mode {
	case "fresh":
		s := newLoaded(in, in.opts)
		return []string{trajectory(s.Solve(), s)}
	case "clone":
		s := newLoaded(in, sat.Options{}).Clone(in.opts)
		return []string{trajectory(s.Solve(), s)}
	}
	s := newLoaded(in, in.opts)
	var lines []string
	for _, q := range panelQueries {
		lines = append(lines, trajectory(s.SolveAssuming(q...), s))
	}
	return lines
}

var panelModes = []string{"fresh", "clone", "assume"}

func TestSolverTrajectoriesArePinned(t *testing.T) {
	for _, in := range panel(t) {
		for _, mode := range panelModes {
			key := in.name + "/" + mode
			got := runPanel(in, mode)
			if want := panelGoldens[key]; !slices.Equal(got, want) {
				t.Errorf("%s:\n got %q\nwant %q", key, got, want)
			}
		}
	}
}

// The panel reaches what it is there for: sat-check deletes nothing,
// the seamed instances delete learnt clauses and compact the arena, and
// random3/gc is satisfiable, so its model is pinned.
func TestPanelReachesReductionAndCompaction(t *testing.T) {
	for _, in := range panel(t) {
		s := newLoaded(in, in.opts)
		st := s.Solve()
		x := s.Stats()
		switch in.name {
		case "sat-check":
			if st != sat.StatusSat || x.Conflicts != 546 || x.Deleted != 0 {
				t.Errorf("%s: %v after %d conflicts, %d deleted; want SAT after 546, none deleted", in.name, st, x.Conflicts, x.Deleted)
			}
		default:
			if x.Deleted == 0 || x.ArenaGCs == 0 {
				t.Errorf("%s: %d deleted, %d compactions; the panel wants both", in.name, x.Deleted, x.ArenaGCs)
			}
		}
		if in.name == "random3/gc" && st != sat.StatusSat {
			t.Errorf("%s: %v, want SAT", in.name, st)
		}
	}
}

// BenchmarkSolve searches each panel instance on a fresh solver and on
// a Clone, reporting the search's ns per propagation and, for a clone,
// the copy's µs; it fails unless every search is its pinned trajectory.
func BenchmarkSolve(b *testing.B) {
	for _, in := range panel(b) {
		want := panelGoldens[in.name+"/fresh"]
		b.Run(in.name+"/fresh", func(b *testing.B) {
			var search time.Duration
			var props int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := newLoaded(in, in.opts)
				b.StartTimer()
				start := time.Now()
				st := s.Solve()
				search += time.Since(start)
				props += s.Stats().Propagations
				if got := trajectory(st, s); !slices.Equal([]string{got}, want) {
					b.Fatalf("trajectory %q, want %q", got, want)
				}
			}
			b.ReportMetric(float64(search.Nanoseconds())/float64(props), "ns/prop")
		})
		b.Run(in.name+"/clone", func(b *testing.B) {
			base := newLoaded(in, sat.Options{})
			var copying, search time.Duration
			var props int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				s := base.Clone(in.opts)
				copying += time.Since(start)
				start = time.Now()
				st := s.Solve()
				search += time.Since(start)
				props += s.Stats().Propagations
				if got := trajectory(st, s); !slices.Equal([]string{got}, want) {
					b.Fatalf("trajectory %q, want %q", got, want)
				}
			}
			b.ReportMetric(float64(search.Nanoseconds())/float64(props), "ns/prop")
			b.ReportMetric(float64(copying.Microseconds())/float64(b.N), "clone-us")
		})
	}
}
