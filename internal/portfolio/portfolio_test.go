package portfolio

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

func randomCNF(vars, clauses, k int, seed int64) *sat.CNF {
	rng := rand.New(rand.NewSource(seed))
	f := &sat.CNF{NumVars: vars}
	for i := 0; i < clauses; i++ {
		seen := map[int]bool{}
		var c []sat.Lit
		for len(c) < k {
			v := rng.Intn(vars)
			if seen[v] {
				continue
			}
			seen[v] = true
			c = append(c, sat.MkLit(sat.Var(v), rng.Intn(2) == 0))
		}
		f.AddClause(c...)
	}
	return f
}

// Property: the portfolio agrees with the brute-force oracle on random
// CNFs across worker counts, and SAT models verify.
func TestPortfolioAgreesWithBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars := 5 + rng.Intn(9)
		cnf := randomCNF(vars, vars*4, 3, seed)
		want, _ := sat.SolveBrute(cnf)
		for _, workers := range []int{1, 2, 4} {
			res := SolvePortfolio(cnf, Options{Workers: workers})
			if res.Status != want {
				return false
			}
			if res.Status == sat.StatusSat {
				if res.Model == nil || !cnf.Eval(res.Model) {
					return false
				}
				if res.Winner < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPortfolioUnsat(t *testing.T) {
	cnf := sat.PigeonholeCNF(5)
	res := SolvePortfolio(cnf, Options{Workers: 3})
	if res.Status != sat.StatusUnsat {
		t.Fatalf("PHP(6,5) = %v, want UNSAT", res.Status)
	}
	if res.Winner < 0 || res.Winner >= 3 {
		t.Fatalf("winner = %d, want a member index", res.Winner)
	}
}

func TestRootLevelUnsatFormula(t *testing.T) {
	f := &sat.CNF{}
	f.AddClause(sat.PosLit(0))
	f.AddClause(sat.NegLit(0))
	if res := SolvePortfolio(f, Options{Workers: 2}); res.Status != sat.StatusUnsat {
		t.Fatalf("portfolio: %v", res.Status)
	}
}

func TestEmptyFormula(t *testing.T) {
	f := &sat.CNF{}
	if res := SolvePortfolio(f, Options{Workers: 2}); res.Status != sat.StatusSat {
		t.Fatalf("portfolio on empty formula: %v", res.Status)
	}
}

func TestDiversifiedOptionsKeepReferenceMember(t *testing.T) {
	base := sat.Options{MaxConflicts: 123}
	cfgs := diversifiedOptions(base, 6)
	if len(cfgs) != 6 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	if cfgs[0] != base {
		t.Fatalf("member 0 must be the unchanged base, got %+v", cfgs[0])
	}
	for i, c := range cfgs {
		if c.MaxConflicts != 123 {
			t.Fatalf("member %d lost the base conflict budget", i)
		}
	}
	// Members must be pairwise distinct so the race explores different
	// search orders — and distinct in a way the solver acts on: a seed
	// difference only matters when RandomPolarityFreq is non-zero.
	for i := 1; i < len(cfgs); i++ {
		for j := i + 1; j < len(cfgs); j++ {
			if cfgs[i] == cfgs[j] {
				t.Fatalf("members %d and %d identical: %+v", i, j, cfgs[i])
			}
		}
	}
	wide := diversifiedOptions(sat.Options{}, 16)
	for i := 4; i < len(wide); i++ {
		if wide[i].RandSeed != 0 && wide[i].RandomPolarityFreq == 0 {
			t.Fatalf("member %d varies only a dead seed: %+v", i, wide[i])
		}
		for j := 0; j < i; j++ {
			if wide[i] == wide[j] {
				t.Fatalf("members %d and %d identical beyond the first cycle", i, j)
			}
		}
	}
}

// TestFanOutRaisesMemberPanicOnCaller: the race starts its members
// through fanOut, so a member's panic fails the solve that asked
// for it — recoverable by that caller — instead of ending the process.
func TestFanOutRaisesMemberPanicOnCaller(t *testing.T) {
	var finished [3]bool
	var got any
	func() {
		defer func() { got = recover() }()
		fanOut(len(finished), func(i int) {
			defer func() { finished[i] = true }()
			if i == 1 {
				panic("member 1")
			}
		})
	}()
	if got != "member 1" {
		t.Fatalf("caller recovered %v, want member 1's panic", got)
	}
	if finished != [3]bool{true, true, true} {
		t.Fatalf("fanOut returned before the join finished: %v", finished)
	}
}
