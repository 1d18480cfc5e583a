package relalg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

// A quantifier that re-binds a variable already in scope must hand the
// outer binding back when it ends. Both the translator and the evaluator
// used to delete it instead, so the first formula below panicked with
// "unbound variable" in Solve and in the oracle alike.
func TestQuantifierShadowingRestoresOuterBinding(t *testing.T) {
	u := NewUniverse("a", "b")
	s := NewRelation("s", 1)
	tt := NewRelation("t", 1)
	inst := NewInstance(u)
	inst.Set(s, SingleTuples(u, "a"))
	inst.Set(tt, SingleTuples(u, "b"))
	b := exactBounds(u, inst, s, tt)
	x := NewVar("x")
	inner := func(over *Relation) Formula { return Exists(x, R(over), Some(V(x))) }
	cases := []struct {
		f    Formula
		want bool
	}{
		{ForAll(x, R(s), And(inner(s), Some(V(x)))), true},
		// After the inner binder (x = b) ends, x must be a again.
		{ForAll(x, R(s), And(inner(tt), Subset(V(x), R(s)))), true},
		{ForAll(x, R(s), And(inner(tt), Subset(V(x), R(tt)))), false},
		// A domain is outside its own binder's scope: the inner x ranges
		// over the outer x's image.
		{ForAll(x, R(s), Exists(x, Union(V(x), R(tt)), Subset(V(x), R(tt)))), true},
		{ForAll(x, R(s), ForAll(x, Union(V(x), R(tt)), Subset(V(x), R(tt)))), false},
	}
	for i, tc := range cases {
		if got := NewEvaluator(inst).EvalFormula(tc.f); got != tc.want {
			t.Errorf("case %d: evaluator says %v, want %v: %s", i, got, tc.want, FormulaString(tc.f))
		}
		res := Solve(&Problem{Bounds: b, Formula: tc.f})
		if got := res.Status == sat.StatusSat; got != tc.want {
			t.Errorf("case %d: Solve says %v, want sat=%v: %s", i, res.Status, tc.want, FormulaString(tc.f))
		}
	}
}

// The cache hands back the matrix it built: one per closed node, one per
// binding of an open node's free variables.
func TestTranslationCacheKeyedByBinding(t *testing.T) {
	u := NewUniverse("a", "b", "c")
	b := NewBounds(u)
	e := NewRelation("e", 2)
	b.BoundUpper(e, AllTuples(u, 2))
	tr := NewTranslator(b, NewCircuit(sat.NewSolver()))

	lt := Closure(R(e))
	closed := tr.TranslateExpr(lt)
	gates := len(tr.circuit.gates)
	if tr.TranslateExpr(lt) != closed {
		t.Error("closed expression translated twice")
	}
	if len(tr.circuit.gates) != gates {
		t.Error("a cache hit created gates")
	}

	x, y := NewVar("x"), NewVar("y")
	open := Join(V(x), lt)
	tr.env[x], tr.env[y] = 0, 0
	at0 := tr.TranslateExpr(open)
	tr.env[y] = 2 // not a free variable of open: same entry
	if tr.TranslateExpr(open) != at0 {
		t.Error("a variable the node does not mention split its cache entry")
	}
	tr.env[x] = 1
	at1 := tr.TranslateExpr(open)
	if at1 == at0 || fmt.Sprint(at1.cells) == fmt.Sprint(at0.cells) {
		t.Error("two bindings of the free variable share one translation")
	}
	tr.env[x] = 0
	if tr.TranslateExpr(open) != at0 {
		t.Error("returning to a binding missed its entry")
	}
}

// bruteCount counts the instances within bounds that the evaluator says
// satisfy f, by trying every subset of the undetermined tuples.
func bruteCount(b *Bounds, f Formula) int {
	type slot struct {
		r *Relation
		t Tuple
	}
	var free []slot
	for _, r := range b.Relations() {
		for _, t := range b.Upper(r).Tuples() {
			if !b.Lower(r).Contains(t) {
				free = append(free, slot{r, t})
			}
		}
	}
	count := 0
	for mask := 0; mask < 1<<len(free); mask++ {
		inst := NewInstance(b.Universe())
		for _, r := range b.Relations() {
			inst.Set(r, b.Lower(r).Clone())
		}
		for i, s := range free {
			if mask>>i&1 == 1 {
				inst.Get(s.r).Add(s.t)
			}
		}
		if NewEvaluator(inst).EvalFormula(f) {
			count++
		}
	}
	return count
}

func enumCount(b *Bounds, f Formula) int {
	en := NewEnumerator(&Problem{Bounds: b, Formula: f})
	count := 0
	for en.Next() != nil {
		count++
	}
	return count
}

// On loose bounds the translation must have exactly the evaluator's
// models, not merely the same satisfiability: the Enumerator's model
// count equals brute force over all 2^9 instances.
func TestEnumeratorCountMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0xc0de))
		u := NewUniverse("a", "b", "c")
		b := NewBounds(u)
		s1 := NewRelation("s1", 1)
		s2 := NewRelation("s2", 1)
		e := NewRelation("e", 2)
		b.BoundUpper(s1, SingleTuples(u, "a", "b"))
		b.Bound(s2, SingleTuples(u, "b"), AllTuples(u, 1))
		eUpper := NewTupleSet(u, 2)
		for _, p := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"b", "b"}, {"c", "b"}} {
			eUpper.AddNames(p[0], p[1])
		}
		b.BoundUpper(e, eUpper)
		formula := randomFormula(rng, s1, s2, e, 3)
		got, want := enumCount(b, formula), bruteCount(b, formula)
		if got != want {
			t.Logf("seed %d: %d models enumerated, %d by brute force: %s", seed, got, want, FormulaString(formula))
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A binding that does not fit the cache key's packed word is translated
// uncached, not mis-keyed: over 2^16 atoms, five free variables bound to
// the highest atoms overflow 64 bits.
func TestTranslationCacheBindingOverflow(t *testing.T) {
	names := make([]string, 1<<16)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	u := NewUniverse(names...)
	hi := []string{names[len(names)-2], names[len(names)-1]}
	b := NewBounds(u)
	r := NewRelation("r", 1)
	e := NewRelation("e", 2)
	b.BoundExactly(r, SingleTuples(u, hi...))
	eUpper := NewTupleSet(u, 2)
	for _, x := range hi {
		for _, y := range hi {
			eUpper.AddNames(x, y)
		}
	}
	b.BoundUpper(e, eUpper)

	v := make([]*Var, 5)
	for i := range v {
		v[i] = NewVar(fmt.Sprintf("v%d", i))
	}
	edge := func(i, j int) Formula { return Subset(Product(V(v[i]), V(v[j])), R(e)) }
	// body mentions all five variables, and is reached under 2^5 bindings.
	body := Or(And(edge(0, 1), edge(2, 3)), And(edge(4, 0), Not(edge(1, 2))), edge(3, 4))
	f := ForAll(v[0], R(r), Exists(v[1], R(r), ForAll(v[2], R(r), Exists(v[3], R(r), ForAll(v[4], R(r), body)))))

	tr := NewTranslator(b, NewCircuit(sat.NewSolver()))
	for _, x := range v {
		tr.env[x] = u.Size() - 1
	}
	if _, ok := tr.key(body); ok {
		t.Fatal("five variables over 2^16 atoms should not fit one key")
	}
	if got, want := enumCount(b, f), bruteCount(b, f); got != want || want == 0 || want == 16 {
		t.Fatalf("%d models enumerated, %d by brute force (of 16)", got, want)
	}
}
