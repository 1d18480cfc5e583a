package relalg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

// Property: the portfolio backend agrees with the sequential solve on
// random relational problems at several member counts, and its SAT
// instances re-evaluate to true.
func TestParallelSolveAgreesWithSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x9a7a11e1))
		u := NewUniverse("a", "b", "c")
		b := NewBounds(u)
		s1 := NewRelation("s1", 1)
		s2 := NewRelation("s2", 1)
		e := NewRelation("e", 2)
		b.BoundUpper(s1, AllTuples(u, 1))
		b.BoundUpper(s2, AllTuples(u, 1))
		b.BoundUpper(e, AllTuples(u, 2))
		formula := randomFormula(rng, s1, s2, e, 3)
		serial := Solve(&Problem{Bounds: b, Formula: formula})
		for _, workers := range []int{2, 3} {
			res := Solve(&Problem{Bounds: b, Formula: formula, Workers: workers})
			if res.Status != serial.Status {
				return false
			}
			if res.Status == sat.StatusSat && !NewEvaluator(res.Instance).EvalFormula(formula) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// checkPortfolio is Check on the portfolio backend.
func checkPortfolio(b *Bounds, axioms, assertion Formula) Result {
	return Solve(&Problem{Bounds: b, Formula: And(axioms, Not(assertion)), Workers: 2})
}

func TestCheckParallelUnsat(t *testing.T) {
	// Some(r) with r bounded above by all tuples: asserting Some(r) under
	// the axiom Some(r) has no counterexample.
	u := NewUniverse("a", "b")
	b := NewBounds(u)
	r := NewRelation("r", 1)
	b.BoundUpper(r, AllTuples(u, 1))
	res := checkPortfolio(b, Some(R(r)), Some(R(r)))
	if res.Status != sat.StatusUnsat {
		t.Fatalf("assertion implied by axiom must verify, got %v", res.Status)
	}
	if res.Instance != nil {
		t.Fatal("unsat result should carry no instance")
	}
	if res.Stats.Clauses == 0 {
		t.Fatal("translation stats missing")
	}
}

func TestCheckParallelCounterexample(t *testing.T) {
	u := NewUniverse("a", "b")
	b := NewBounds(u)
	r := NewRelation("r", 1)
	b.BoundUpper(r, AllTuples(u, 1))
	res := checkPortfolio(b, TrueF(), No(R(r)))
	if res.Status != sat.StatusSat {
		t.Fatalf("No(r) is not a theorem, got %v", res.Status)
	}
	if res.Instance == nil || res.Instance.Get(r).Len() == 0 {
		t.Fatal("counterexample must make r non-empty")
	}
}
