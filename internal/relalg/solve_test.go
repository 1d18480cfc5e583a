package relalg

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

func TestSolveTrivialSat(t *testing.T) {
	u := NewUniverse("a", "b")
	b := NewBounds(u)
	r := NewRelation("r", 1)
	b.BoundUpper(r, AllTuples(u, 1))
	res := Solve(&Problem{Bounds: b, Formula: Some(R(r))})
	if res.Status != sat.StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Instance.Get(r).Len() == 0 {
		t.Fatal("instance should make r non-empty")
	}
}

func TestSolveUnsat(t *testing.T) {
	u := NewUniverse("a", "b")
	b := NewBounds(u)
	r := NewRelation("r", 1)
	b.BoundUpper(r, AllTuples(u, 1))
	res := Solve(&Problem{Bounds: b, Formula: And(Some(R(r)), No(R(r)))})
	if res.Status != sat.StatusUnsat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Instance != nil {
		t.Fatal("unsat result should have nil instance")
	}
}

func TestSolveRespectsLowerBound(t *testing.T) {
	u := NewUniverse("a", "b", "c")
	b := NewBounds(u)
	r := NewRelation("r", 1)
	b.Bound(r, SingleTuples(u, "a"), AllTuples(u, 1))
	res := Solve(&Problem{Bounds: b, Formula: TrueF()})
	if res.Status != sat.StatusSat {
		t.Fatal(res.Status)
	}
	if !res.Instance.Get(r).Contains(Tuple{0}) {
		t.Fatal("lower bound tuple missing from instance")
	}
}

// The paper's uniqueID assertion (Section III): two distinct pnodes must
// have different ids. Without an injectivity fact the assertion has a
// counterexample; with the fact it holds.
func TestCheckUniqueIDStyle(t *testing.T) {
	u := NewUniverse("n1", "n2", "id1", "id2")
	nodes := SingleTuples(u, "n1", "n2")
	ids := SingleTuples(u, "id1", "id2")
	b := NewBounds(u)
	pnode := NewRelation("pnode", 1)
	idRel := NewRelation("id", 2)
	b.BoundExactly(pnode, nodes)
	upper := NewTupleSet(u, 2)
	for _, n := range nodes.Tuples() {
		for _, i := range ids.Tuples() {
			upper.Add(Tuple{n[0], i[0]})
		}
	}
	b.BoundUpper(idRel, upper)

	x := NewVar("x")
	// Each node has exactly one id.
	funcFact := ForAll(x, R(pnode), One(Join(V(x), R(idRel))))

	y := NewVar("y")
	distinctIDs := ForAll(x, R(pnode), ForAll(y, R(pnode),
		Or(Subset(V(x), V(y)), // x = y
			Not(Equal(Join(V(x), R(idRel)), Join(V(y), R(idRel)))))))

	// Without injectivity: counterexample exists.
	res := Check(b, funcFact, distinctIDs, sat.Options{})
	if res.Status != sat.StatusSat {
		t.Fatalf("expected counterexample, got %v", res.Status)
	}
	// The counterexample must violate the assertion but satisfy the fact.
	ev := NewEvaluator(res.Instance)
	if !ev.EvalFormula(funcFact) {
		t.Fatal("counterexample violates the fact")
	}
	if ev.EvalFormula(distinctIDs) {
		t.Fatal("counterexample satisfies the assertion?")
	}

	// With injectivity as an extra fact: assertion verified (UNSAT).
	inj := ForAll(x, R(pnode), ForAll(y, R(pnode),
		Or(Subset(V(x), V(y)),
			No(Intersect(Join(V(x), R(idRel)), Join(V(y), R(idRel)))))))
	res2 := Check(b, And(funcFact, inj), distinctIDs, sat.Options{})
	if res2.Status != sat.StatusUnsat {
		t.Fatalf("assertion should hold, got %v", res2.Status)
	}
}

func TestSolveInstanceSatisfiesFormula(t *testing.T) {
	// Random formulas over two unary and one binary relation: every SAT
	// instance must re-evaluate to true (translator/evaluator agreement).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := NewUniverse("a", "b", "c")
		b := NewBounds(u)
		s1 := NewRelation("s1", 1)
		s2 := NewRelation("s2", 1)
		e := NewRelation("e", 2)
		b.BoundUpper(s1, AllTuples(u, 1))
		b.BoundUpper(s2, AllTuples(u, 1))
		b.BoundUpper(e, AllTuples(u, 2))
		formula := randomFormula(rng, s1, s2, e, 3)
		res := Solve(&Problem{Bounds: b, Formula: formula})
		if res.Status != sat.StatusSat {
			return true // nothing to validate
		}
		return NewEvaluator(res.Instance).EvalFormula(formula)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCounterexampleFalsifiesAssertion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x1234))
		u := NewUniverse("a", "b", "c")
		b := NewBounds(u)
		s1 := NewRelation("s1", 1)
		s2 := NewRelation("s2", 1)
		e := NewRelation("e", 2)
		b.BoundUpper(s1, AllTuples(u, 1))
		b.BoundUpper(s2, AllTuples(u, 1))
		b.BoundUpper(e, AllTuples(u, 2))
		axiom := randomFormula(rng, s1, s2, e, 2)
		assertion := randomFormula(rng, s1, s2, e, 2)
		res := Check(b, axiom, assertion, sat.Options{})
		if res.Status != sat.StatusSat {
			return true
		}
		ev := NewEvaluator(res.Instance)
		return ev.EvalFormula(axiom) && !ev.EvalFormula(assertion)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// randomFormula builds a small random formula over the given relations.
func randomFormula(rng *rand.Rand, s1, s2, e *Relation, depth int) Formula {
	return newFormulaGen(rng, s1, s2, e).formula(depth)
}

func newFormulaGen(rng *rand.Rand, s1, s2, e *Relation) *formulaGen {
	return &formulaGen{rng: rng, s1: s1, s2: s2, e: e, lt: Closure(R(e))}
}

// formulaGen draws random formulas shaped to exercise the translator's
// binding-keyed cache: quantifiers nest up to three deep, leaves mention
// any subset of the variables in scope (only the outer one, only the
// inner one, both, neither), domains mention outer variables, a binder
// may shadow a variable already in scope, one Closure node is shared by
// every site that wants it, and formulas already built are handed out
// again — the same pointer — wherever their variables are in scope, so
// one node is translated at several sites and under several bindings.
type formulaGen struct {
	rng       *rand.Rand
	s1, s2, e *Relation
	lt        Expr   // the one ^e node every site shares
	scope     []*Var // quantified variables in scope, innermost last
	pool      []pooledFormula
}

// pooledFormula is a formula and the scope it was built in; it is
// well-formed wherever those variables are all in scope.
type pooledFormula struct {
	f     Formula
	scope []*Var
}

func (g *formulaGen) scopeVar() Expr { return V(g.scope[g.rng.Intn(len(g.scope))]) }

func (g *formulaGen) unary() Expr {
	n := 4
	if len(g.scope) > 0 {
		n = 7
	}
	switch g.rng.Intn(n) {
	case 0:
		return R(g.s1)
	case 1:
		return R(g.s2)
	case 2:
		return Univ()
	case 3:
		return Join(Univ(), R(g.e)) // image of e
	case 4:
		return g.scopeVar()
	default:
		return Join(g.scopeVar(), g.binary())
	}
}

func (g *formulaGen) binary() Expr {
	n := 4
	if len(g.scope) > 0 {
		n = 5
	}
	switch g.rng.Intn(n) {
	case 0:
		return R(g.e)
	case 1:
		return Transpose(R(g.e))
	case 2:
		return Closure(R(g.e))
	case 3:
		return g.lt
	default:
		return Product(g.scopeVar(), g.scopeVar())
	}
}

func (g *formulaGen) leaf() Formula {
	switch g.rng.Intn(6) {
	case 0:
		return Some(g.unary())
	case 1:
		return No(g.unary())
	case 2:
		return Lone(g.unary())
	case 3:
		return Subset(g.unary(), g.unary())
	case 4:
		return AtMost(g.binary(), g.rng.Intn(4))
	default:
		return AtLeast(g.unary(), g.rng.Intn(3))
	}
}

// keep records f for reuse under the current scope and returns it.
func (g *formulaGen) keep(f Formula) Formula {
	g.pool = append(g.pool, pooledFormula{f, append([]*Var(nil), g.scope...)})
	return f
}

// reuse returns an earlier formula whose variables are all in scope, or
// a fresh leaf when a few draws find none.
func (g *formulaGen) reuse() Formula {
	for try := 0; try < 4 && len(g.pool) > 0; try++ {
		p := g.pool[g.rng.Intn(len(g.pool))]
		ok := true
		for _, v := range p.scope {
			ok = ok && slices.Contains(g.scope, v)
		}
		if ok {
			return p.f
		}
	}
	return g.leaf()
}

func (g *formulaGen) formula(depth int) Formula {
	if depth <= 0 {
		if g.rng.Intn(4) == 0 {
			return g.reuse()
		}
		return g.keep(g.leaf())
	}
	switch g.rng.Intn(6) {
	case 0:
		return g.keep(And(g.formula(depth-1), g.formula(depth-1)))
	case 1:
		return g.keep(Or(g.formula(depth-1), g.formula(depth-1)))
	case 2:
		return Not(g.formula(depth - 1))
	case 3, 4:
		return g.keep(g.quant(depth))
	default:
		return g.formula(0)
	}
}

// quant builds a quantifier; half the time its body is another one, so
// depth 3 reaches three nested binders.
func (g *formulaGen) quant(depth int) Formula {
	var x *Var
	if len(g.scope) > 0 && g.rng.Intn(4) == 0 {
		x = g.scope[g.rng.Intn(len(g.scope))] // shadow a variable in scope
	} else {
		x = NewVar(fmt.Sprintf("q%d", len(g.scope)))
	}
	over := g.unary() // outside x's scope: may mention the variable x shadows
	g.scope = append(g.scope, x)
	// site mentions at most the variables bound so far; it sits beside
	// the nested body here and comes back out of the pool further in.
	site := g.keep(g.leaf())
	var body Formula
	if depth > 1 && g.rng.Intn(2) == 0 {
		body = g.quant(depth - 1)
	} else {
		body = g.formula(depth - 1)
	}
	switch g.rng.Intn(3) {
	case 0:
		body = And(site, body)
	case 1:
		body = Or(body, site)
	}
	g.scope = g.scope[:len(g.scope)-1]
	if g.rng.Intn(2) == 0 {
		return ForAll(x, over, body)
	}
	return Exists(x, over, body)
}

func TestEnumeratorCountsModels(t *testing.T) {
	// r is any subset of {a,b,c} with some r: 2^3 - 1 = 7 instances.
	u := NewUniverse("a", "b", "c")
	b := NewBounds(u)
	r := NewRelation("r", 1)
	b.BoundUpper(r, AllTuples(u, 1))
	en := NewEnumerator(&Problem{Bounds: b, Formula: Some(R(r))})
	count := 0
	seen := map[string]bool{}
	for inst := en.Next(); inst != nil; inst = en.Next() {
		count++
		key := inst.Get(r).String()
		if seen[key] {
			t.Fatalf("duplicate instance %s", key)
		}
		seen[key] = true
		if count > 10 {
			t.Fatal("runaway enumeration")
		}
	}
	if count != 7 {
		t.Fatalf("enumerated %d instances, want 7", count)
	}
}

func TestEnumeratorFullyDetermined(t *testing.T) {
	u := NewUniverse("a")
	b := NewBounds(u)
	r := NewRelation("r", 1)
	b.BoundExactly(r, SingleTuples(u, "a"))
	en := NewEnumerator(&Problem{Bounds: b, Formula: Some(R(r))})
	if en.Next() == nil {
		t.Fatal("expected one instance")
	}
	if en.Next() != nil {
		t.Fatal("expected exactly one instance")
	}
}

func TestTranslateOnlyCounts(t *testing.T) {
	u := NewUniverse("a", "b", "c")
	b := NewBounds(u)
	e := NewRelation("e", 2)
	b.BoundUpper(e, AllTuples(u, 2))
	x := NewVar("x")
	f := ForAll(x, Univ(), Lone(Join(V(x), R(e))))
	st := TranslateOnly(b, f)
	if st.PrimaryVars != 9 {
		t.Errorf("primary vars = %d, want 9", st.PrimaryVars)
	}
	if st.Clauses == 0 || st.AuxVars == 0 {
		t.Errorf("expected non-trivial CNF, got %+v", st)
	}
	if st.TotalVars() != st.PrimaryVars+st.AuxVars {
		t.Error("TotalVars inconsistent")
	}
}

func TestCardinalityEncodingAgainstEnumeration(t *testing.T) {
	// #r <= 2 over a 4-atom unary relation has C(4,0)+C(4,1)+C(4,2) = 11 models.
	u := NewUniverse("a", "b", "c", "d")
	b := NewBounds(u)
	r := NewRelation("r", 1)
	b.BoundUpper(r, AllTuples(u, 1))
	en := NewEnumerator(&Problem{Bounds: b, Formula: AtMost(R(r), 2)})
	count := 0
	for inst := en.Next(); inst != nil; inst = en.Next() {
		if inst.Get(r).Len() > 2 {
			t.Fatalf("instance violates #r<=2: %v", inst.Get(r))
		}
		count++
	}
	if count != 11 {
		t.Fatalf("models = %d, want 11", count)
	}
	// #r >= 3: C(4,3)+C(4,4) = 5 models.
	en = NewEnumerator(&Problem{Bounds: b, Formula: AtLeast(R(r), 3)})
	count = 0
	for inst := en.Next(); inst != nil; inst = en.Next() {
		if inst.Get(r).Len() < 3 {
			t.Fatalf("instance violates #r>=3: %v", inst.Get(r))
		}
		count++
	}
	if count != 5 {
		t.Fatalf("models = %d, want 5", count)
	}
}

func TestClosureTranslationSemantics(t *testing.T) {
	// Find an instance where ^e connects a to c but e does not directly.
	u := NewUniverse("a", "b", "c")
	b := NewBounds(u)
	e := NewRelation("e", 2)
	b.BoundUpper(e, AllTuples(u, 2))
	aToC := Product(SingleExpr(u, "a"), SingleExpr(u, "c"))
	f := And(
		Subset(aToC, Closure(R(e))),
		Not(Subset(aToC, R(e))),
	)
	res := Solve(&Problem{Bounds: b, Formula: f})
	if res.Status != sat.StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
	if !NewEvaluator(res.Instance).EvalFormula(f) {
		t.Fatal("closure instance fails re-evaluation")
	}
}
