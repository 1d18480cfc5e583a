package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The ablation matrix over the new storage/deletion options: every
// combination must stay sound against the brute-force oracle.
func TestOptionsAblationLBDAndArenaGC(t *testing.T) {
	variants := []Options{
		{},
		{disableLBD: true},
		{coreLBD: 2},
		{coreLBD: 5},
		{gcFrac: 0.01}, // compact aggressively
		{gcFrac: 0.9},  // compact almost never
		{disableLBD: true, gcFrac: 0.01},
		{coreLBD: 2, gcFrac: 0.05, DisableRestarts: true},
		{DisableVSIDS: true, gcFrac: 0.01},
	}
	for seed := int64(0); seed < 6; seed++ {
		f := randomCNF(18, 80, 3, seed+900)
		want, _ := SolveBrute(f)
		for i, opt := range variants {
			s := NewSolverWithOptions(opt)
			if err := f.LoadInto(s); err != nil {
				t.Fatal(err)
			}
			if got := s.Solve(); got != want {
				t.Errorf("seed %d variant %d (%+v): got %v, want %v", seed, i, opt, got, want)
			}
		}
	}
}

// Arena compaction must relocate clauses without corrupting the model:
// force GCs with a tiny threshold on an instance large enough to learn
// and delete many clauses, then re-evaluate the model.
func TestModelValidAfterArenaCompaction(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		f := randomCNF(100, 400, 3, seed+3100) // under the 4.26 threshold: mostly SAT
		s := NewSolverWithOptions(Options{gcFrac: 0.01})
		if err := f.LoadInto(s); err != nil {
			t.Fatal(err)
		}
		status := s.Solve()
		want, _ := SolveBrute(f)
		if status != want {
			t.Fatalf("seed %d: got %v, DPLL oracle %v", seed, status, want)
		}
		if status == StatusSat && !f.Eval(s.Model()) {
			t.Fatalf("seed %d: model does not satisfy the formula after compaction", seed)
		}
	}
	// Dedicated check that the tiny threshold actually triggers GCs on a
	// conflict-heavy instance, so the relocation path is exercised.
	s := NewSolverWithOptions(Options{gcFrac: 0.01})
	if err := PigeonholeCNF(7).LoadInto(s); err != nil {
		t.Fatal(err)
	}
	if got := s.Solve(); got != StatusUnsat {
		t.Fatalf("PHP(8,7) = %v, want UNSAT", got)
	}
	if st := s.Stats(); st.ArenaGCs == 0 {
		t.Fatalf("gcFrac=0.01 never compacted (deleted %d clauses)", st.Deleted)
	}
}

// Property: a persistent solver answering a random sequence of
// assumption sets agrees with a fresh solver (and the brute oracle) on
// every query — learnt clauses carried across solves never change a
// verdict.
func TestRandomAssumptionSequencesIncrementalVsFresh(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x2c55))
		vars := 6 + rng.Intn(6)
		cnf := randomCNF(vars, vars*4, 3, seed^0xbeef)
		inc := NewSolver()
		if err := cnf.LoadInto(inc); err != nil {
			return false
		}
		for q := 0; q < 5; q++ {
			n := rng.Intn(4)
			seen := map[Var]bool{}
			var asms []Lit
			for len(asms) < n {
				v := Var(rng.Intn(vars))
				if seen[v] {
					continue
				}
				seen[v] = true
				asms = append(asms, MkLit(v, rng.Intn(2) == 0))
			}
			got := inc.SolveAssuming(asms...)

			fresh := NewSolver()
			if err := cnf.LoadInto(fresh); err != nil {
				return false
			}
			if fresh.SolveAssuming(asms...) != got {
				t.Logf("seed %d query %d: incremental %v disagrees with fresh solver", seed, q, got)
				return false
			}
			ref := &CNF{NumVars: cnf.NumVars}
			for _, c := range cnf.Clauses {
				ref.AddClause(c...)
			}
			for _, a := range asms {
				ref.AddClause(a)
			}
			want, _ := SolveBrute(ref)
			if got != want {
				t.Logf("seed %d query %d: got %v, brute %v", seed, q, got, want)
				return false
			}
			if got == StatusSat && !ref.Eval(inc.Model()) {
				t.Logf("seed %d query %d: model violates formula+assumptions", seed, q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
