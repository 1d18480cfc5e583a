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
		inc := NewIncremental(b, base, IncrementalOptions{})
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

// The parallel-session leg must agree with the serial session (and thus
// with one-shot solving) on every variant.
func TestIncrementalParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	b1, s1a, s2a, ea := incrementalFixture()
	b2, s1b, s2b, eb := incrementalFixture()
	remap := map[*Relation]*Relation{s1a: s1b, s2a: s2b, ea: eb}

	g := newFormulaGen(rng, s1a, s2a, ea)
	base := g.formula(3)
	serial := NewIncremental(b1, base, IncrementalOptions{})
	par := NewIncremental(b2, remapFormula(base, remap), IncrementalOptions{
		Parallel: &ParallelOptions{Workers: 2},
	})
	for i := 0; i < 6; i++ {
		variant := g.formula(3)
		gs := serial.Solve(variant)
		gp := par.Solve(remapFormula(variant, remap))
		if gs.Status != gp.Status {
			t.Fatalf("variant %d: serial %v, parallel %v", i, gs.Status, gp.Status)
		}
		if gp.Status == sat.StatusSat {
			ev := NewEvaluator(gp.Instance)
			if !ev.EvalFormula(remapFormula(variant, remap)) {
				t.Fatalf("variant %d: parallel model violates the variant", i)
			}
		}
	}
}

// A variant that simplifies to FALSE must answer UNSAT without
// poisoning the session for later variants.
func TestIncrementalFalseVariantDoesNotPoisonSession(t *testing.T) {
	b, s1, _, _ := incrementalFixture()
	inc := NewIncremental(b, TrueF(), IncrementalOptions{})
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

// BoundAssumptions: solving under the assumption literals of narrower
// variant bounds must agree with re-translating under those bounds.
func TestBoundAssumptionsMatchRetranslation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x77aa))
		b, s1, s2, e := incrementalFixture()
		base := randomFormula(rng, s1, s2, e, 3)
		inc := NewIncremental(b, base, IncrementalOptions{})

		// A narrower variant: drop a random atom from s1's upper bound,
		// optionally pin a tuple of s2 into the lower bound.
		u := b.Universe()
		vb := NewBounds(u)
		up1 := NewTupleSet(u, 1)
		drop := rng.Intn(u.Size())
		for i := 0; i < u.Size(); i++ {
			if i != drop {
				up1.Add(Tuple{i})
			}
		}
		vb.BoundUpper(s1, up1)
		lo2 := NewTupleSet(u, 1)
		if rng.Intn(2) == 0 {
			lo2.Add(Tuple{rng.Intn(u.Size())})
		}
		vb.Bound(s2, lo2, AllTuples(u, 1))
		vb.BoundUpper(e, AllTuples(u, 2))

		asms, err := inc.BoundAssumptions(vb)
		if err != nil {
			t.Logf("seed %d: BoundAssumptions: %v", seed, err)
			return false
		}
		got := inc.Solve(TrueF(), asms...)

		b2, s1b, s2b, eb := incrementalFixture()
		_ = b2
		vb2 := NewBounds(u)
		vb2.BoundUpper(s1b, up1)
		vb2.Bound(s2b, lo2, AllTuples(u, 1))
		vb2.BoundUpper(eb, AllTuples(u, 2))
		remap := map[*Relation]*Relation{s1: s1b, s2: s2b, e: eb}
		want := Solve(&Problem{Bounds: vb2, Formula: remapFormula(base, remap)})
		if got.Status != want.Status {
			t.Logf("seed %d: assumed %v, re-translated %v", seed, got.Status, want.Status)
			return false
		}
		if got.Status == sat.StatusSat {
			// The model must respect the narrowed bounds.
			if got.Instance.Get(s1).Contains(Tuple{drop}) {
				t.Logf("seed %d: model keeps the dropped tuple", seed)
				return false
			}
			if !got.Instance.Get(s2).ContainsAll(lo2) {
				t.Logf("seed %d: model misses the pinned lower bound", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Envelope violations must be rejected with errors, not mis-assumed.
func TestBoundAssumptionsRejectsEnvelopeViolations(t *testing.T) {
	b, s1, _, _ := incrementalFixture()
	u := b.Universe()
	inc := NewIncremental(b, TrueF(), IncrementalOptions{})

	// Different universe.
	u2 := NewUniverse("a", "b")
	if _, err := inc.BoundAssumptions(NewBounds(u2)); err == nil {
		t.Fatal("smaller universe accepted")
	}
	// Unknown relation.
	vb := NewBounds(u)
	other := NewRelation("other", 1)
	vb.BoundUpper(other, AllTuples(u, 1))
	if _, err := inc.BoundAssumptions(vb); err == nil {
		t.Fatal("unknown relation accepted")
	}
	// Lower bound dropping below the base lower bound.
	b2 := NewBounds(u)
	lo := SingleTuples(u, "a")
	b2.Bound(s1, lo, AllTuples(u, 1))
	inc2 := NewIncremental(b2, TrueF(), IncrementalOptions{})
	vb2 := NewBounds(u)
	vb2.BoundUpper(s1, AllTuples(u, 1)) // empty lower: drops base-certain "a"
	if _, err := inc2.BoundAssumptions(vb2); err == nil {
		t.Fatal("dropped base-certain tuple accepted")
	}
}
