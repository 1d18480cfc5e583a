package relalg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

// incrementalFixture builds the random-formula playground shared by the
// incremental equivalence tests.
func incrementalFixture() (*Bounds, *Relation, *Relation, *Relation) {
	u := NewUniverse("a", "b", "c")
	b := NewBounds(u)
	s1 := NewRelation("s1", 1)
	s2 := NewRelation("s2", 1)
	e := NewRelation("e", 2)
	b.BoundUpper(s1, AllTuples(u, 1))
	b.BoundUpper(s2, AllTuples(u, 1))
	b.BoundUpper(e, AllTuples(u, 2))
	return b, s1, s2, e
}

// Property: a persistent incremental session answers every variant of a
// random sweep exactly like one-shot solving base ∧ variant, and its
// SAT instances satisfy the conjunction — learnt clauses retained from
// earlier variants never leak into later verdicts.
func TestIncrementalMatchesOneShotProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x9e37))
		b, s1, s2, e := incrementalFixture()
		// One generator for the whole sweep: variants reuse closed nodes
		// of the base and of each other, so the session's translation
		// cache is hit across Solve calls.
		g := newFormulaGen(rng, s1, s2, e)
		base := g.formula(3)
		inc := NewIncremental(b, base, sat.Options{})
		for i := 0; i < 6; i++ {
			variant := g.formula(3)
			got := inc.Solve(variant)

			b2, s1b, s2b, eb := incrementalFixture()
			remap := map[*Relation]*Relation{s1: s1b, s2: s2b, e: eb}
			want := Solve(&Problem{
				Bounds:  b2,
				Formula: And(remapFormula(base, remap), remapFormula(variant, remap)),
			})
			if got.Status != want.Status {
				t.Logf("seed %d variant %d: incremental %v, one-shot %v", seed, i, got.Status, want.Status)
				return false
			}
			if got.Status == sat.StatusSat {
				ev := NewEvaluator(got.Instance)
				if !ev.EvalFormula(base) || !ev.EvalFormula(variant) {
					t.Logf("seed %d variant %d: incremental model violates the conjunction", seed, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// remapFormula rebuilds a formula over fresh relation values so the
// one-shot reference problem cannot share translator state by pointer
// identity with the incremental session.
func remapFormula(f Formula, m map[*Relation]*Relation) Formula {
	switch f := f.(type) {
	case *BoolFormula:
		return f
	case *NotFormula:
		return Not(remapFormula(f.F, m))
	case *NaryFormula:
		out := make([]Formula, len(f.Fs))
		for i, sub := range f.Fs {
			out[i] = remapFormula(sub, m)
		}
		if f.Op == OpAnd {
			return And(out...)
		}
		return Or(out...)
	case *MultFormula:
		return &MultFormula{Mult: f.Mult, E: remapExpr(f.E, m)}
	case *CompareFormula:
		return &CompareFormula{Op: f.Op, L: remapExpr(f.L, m), R: remapExpr(f.R, m)}
	case *QuantFormula:
		return &QuantFormula{Quant: f.Quant, V: f.V, Over: remapExpr(f.Over, m), Body: remapFormula(f.Body, m)}
	case *CardFormula:
		return &CardFormula{Op: f.Op, E: remapExpr(f.E, m), K: f.K}
	}
	panic("remapFormula: unhandled formula")
}

func remapExpr(e Expr, m map[*Relation]*Relation) Expr {
	switch e := e.(type) {
	case *RelExpr:
		if r, ok := m[e.R]; ok {
			return R(r)
		}
		return e
	case *VarExpr, *ConstExpr, *AtomExpr:
		return e
	case *BinExpr:
		return &BinExpr{Op: e.Op, L: remapExpr(e.L, m), R: remapExpr(e.R, m)}
	case *UnExpr:
		return &UnExpr{Op: e.Op, E: remapExpr(e.E, m)}
	}
	panic("remapExpr: unhandled expr")
}

// A variant that simplifies to FALSE must answer UNSAT without
// poisoning the session for later variants.
func TestIncrementalFalseVariantDoesNotPoisonSession(t *testing.T) {
	b, s1, _, _ := incrementalFixture()
	inc := NewIncremental(b, TrueF(), sat.Options{})
	if got := inc.Solve(FalseF()); got.Status != sat.StatusUnsat {
		t.Fatalf("FALSE variant: %v", got.Status)
	}
	if got := inc.Solve(Some(R(s1))); got.Status != sat.StatusSat {
		t.Fatalf("later variant after FALSE: %v", got.Status)
	}
	if got := inc.Solve(TrueF()); got.Status != sat.StatusSat {
		t.Fatalf("TRUE variant: %v", got.Status)
	}
}
