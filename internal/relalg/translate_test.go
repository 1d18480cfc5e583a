package relalg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

// randomInstance builds a random concrete instance over a small universe
// for two unary and one binary relation.
func randomInstance(rng *rand.Rand) (*Universe, *Relation, *Relation, *Relation, *Instance) {
	u := NewUniverse("a", "b", "c")
	s1 := NewRelation("s1", 1)
	s2 := NewRelation("s2", 1)
	e := NewRelation("e", 2)
	inst := NewInstance(u)
	t1 := NewTupleSet(u, 1)
	t2 := NewTupleSet(u, 1)
	te := NewTupleSet(u, 2)
	for a := 0; a < 3; a++ {
		if rng.Intn(2) == 0 {
			t1.Add(Tuple{a})
		}
		if rng.Intn(2) == 0 {
			t2.Add(Tuple{a})
		}
		for b := 0; b < 3; b++ {
			if rng.Intn(3) == 0 {
				te.Add(Tuple{a, b})
			}
		}
	}
	inst.Set(s1, t1)
	inst.Set(s2, t2)
	inst.Set(e, te)
	return u, s1, s2, e, inst
}

// exactBounds turns an instance into exact bounds (lower = upper), so
// translation produces a fully determined problem.
func exactBounds(u *Universe, inst *Instance, rels ...*Relation) *Bounds {
	b := NewBounds(u)
	for _, r := range rels {
		b.BoundExactly(r, inst.Get(r))
	}
	return b
}

// Ground truth: on a fully determined problem, Solve(formula) is SAT iff
// the evaluator says the formula holds in the instance — the translator
// and the evaluator implement the same semantics.
func TestTranslatorMatchesEvaluatorOnGroundInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u, s1, s2, e, inst := randomInstance(rng)
		b := exactBounds(u, inst, s1, s2, e)
		formula := randomFormula(rng, s1, s2, e, 2)
		want := NewEvaluator(inst).EvalFormula(formula)
		res := Solve(&Problem{Bounds: b, Formula: formula})
		got := res.Status == sat.StatusSat
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// Expression-level ground truth: translating an expression over exact
// bounds yields constant matrices that coincide with the evaluator's
// tuple sets.
func TestTranslateExprConstantMatrices(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0xE))
		u, s1, s2, e, inst := randomInstance(rng)
		b := exactBounds(u, inst, s1, s2, e)
		exprs := []Expr{
			R(s1), R(s2), R(e),
			Union(R(s1), R(s2)),
			Intersect(R(s1), R(s2)),
			Difference(R(s1), R(s2)),
			Join(R(s1), R(e)),
			Join(R(e), R(s2)),
			Product(R(s1), R(s2)),
			Transpose(R(e)),
			Closure(R(e)),
			ReflexiveClosure(R(e)),
			Join(R(e), R(e)),
		}
		solver := sat.NewSolver()
		circuit := NewCircuit(solver)
		tr := NewTranslator(b, circuit)
		ev := NewEvaluator(inst)
		for _, ex := range exprs {
			m := tr.TranslateExpr(ex)
			want := ev.EvalExpr(ex)
			// Constant matrix: every cell must be TrueNode, and the key set
			// must equal the evaluator's tuple set.
			if len(m.cells) != want.Len() {
				return false
			}
			for _, c := range m.cells {
				k, n := c.key, c.node
				if n != TrueNode {
					return false
				}
				tup := keyToTuple(k, u.Size(), want.Arity())
				if !want.Contains(tup) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateUnboundRelationPanics(t *testing.T) {
	u := NewUniverse("a")
	b := NewBounds(u)
	solver := sat.NewSolver()
	tr := NewTranslator(b, NewCircuit(solver))
	defer func() {
		if recover() == nil {
			t.Fatal("unbound relation should panic")
		}
	}()
	tr.TranslateExpr(R(NewRelation("ghost", 1)))
}

func TestTranslateUnboundVarPanics(t *testing.T) {
	u := NewUniverse("a")
	b := NewBounds(u)
	solver := sat.NewSolver()
	tr := NewTranslator(b, NewCircuit(solver))
	defer func() {
		if recover() == nil {
			t.Fatal("unbound variable should panic")
		}
	}()
	tr.TranslateExpr(V(NewVar("x")))
}

// Symmetric difference identity: (A−B) + (B−A) = (A+B) − (A&B), verified
// through the SAT pipeline over undetermined bounds.
func TestAlgebraicIdentityViaSolver(t *testing.T) {
	u := NewUniverse("a", "b", "c")
	b := NewBounds(u)
	A := NewRelation("A", 1)
	B := NewRelation("B", 1)
	b.BoundUpper(A, AllTuples(u, 1))
	b.BoundUpper(B, AllTuples(u, 1))
	lhs := Union(Difference(R(A), R(B)), Difference(R(B), R(A)))
	rhs := Difference(Union(R(A), R(B)), Intersect(R(A), R(B)))
	// The identity holds in every instance: its negation is UNSAT.
	res := Solve(&Problem{Bounds: b, Formula: Not(Equal(lhs, rhs))})
	if res.Status != sat.StatusUnsat {
		t.Fatalf("symmetric difference identity violated: %v\n%v", res.Status, res.Instance)
	}
}

// Transpose involution and closure idempotence as solver-level identities.
func TestRelationalIdentities(t *testing.T) {
	u := NewUniverse("a", "b", "c")
	b := NewBounds(u)
	e := NewRelation("e", 2)
	b.BoundUpper(e, AllTuples(u, 2))
	ids := []Formula{
		Equal(Transpose(Transpose(R(e))), R(e)),
		Equal(Closure(Closure(R(e))), Closure(R(e))),
		Subset(R(e), Closure(R(e))),
		Equal(ReflexiveClosure(R(e)), Union(Closure(R(e)), Iden())),
	}
	for i, id := range ids {
		res := Solve(&Problem{Bounds: b, Formula: Not(id)})
		if res.Status != sat.StatusUnsat {
			t.Errorf("identity %d violated (%v):\n%v", i, res.Status, res.Instance)
		}
	}
}
