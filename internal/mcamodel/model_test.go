package mcamodel

import (
	"testing"

	"repro/internal/relalg"
	"repro/internal/sat"
)

func tinyScope() Scope {
	return Scope{PNodes: 2, VNodes: 1, Values: 2, States: 2, Msgs: 1}
}

func TestScopeValidate(t *testing.T) {
	bad := []Scope{
		{},
		{PNodes: 1, VNodes: 1, Values: 1, States: 2, Msgs: 1},
		{PNodes: 1, VNodes: 1, Values: 2, States: 1, Msgs: 1},
		// Past the ceilings, or negative where zero means the default: a
		// scope from a document may not size the builders' allocations.
		{PNodes: MaxScopeSize + 1, VNodes: 1, Values: 2, States: 2, Msgs: 1},
		{PNodes: 1, VNodes: 1, Values: 2, States: 2, Msgs: MaxScopeSize + 1},
		{PNodes: 1, VNodes: 1, Values: 2, States: 2, Msgs: 1, IntBitwidth: MaxIntBitwidth + 1},
		{PNodes: 1, VNodes: 1, Values: 2, States: 2, Msgs: 1, IntBitwidth: -1},
		{PNodes: 1, VNodes: 1, Values: 2, States: 2, Msgs: 1, Triples: -1},
		{PNodes: 1, VNodes: 1, Values: 2, States: 2, Msgs: 1, BidVectors: MaxPool + 1},
	}
	ceiling := Scope{PNodes: MaxScopeSize, VNodes: MaxScopeSize, Values: MaxScopeSize, States: MaxScopeSize,
		Msgs: MaxScopeSize, IntBitwidth: MaxIntBitwidth, Triples: MaxPool, BidVectors: MaxPool}
	if err := ceiling.Validate(); err != nil {
		t.Errorf("scope at the ceilings: %v", err)
	}
	for _, sc := range bad {
		if sc.Validate() == nil {
			t.Errorf("scope %+v should be invalid", sc)
		}
	}
	if PaperScope().Validate() != nil {
		t.Error("paper scope must validate")
	}
	if PaperScope().String() == "" {
		t.Error("scope string")
	}
}

func TestNaiveBuilds(t *testing.T) {
	e, err := BuildNaive(tinyScope())
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "naive" || e.Bounds == nil || e.Background == nil || e.Consensus == nil {
		t.Fatal("incomplete encoding")
	}
}

func TestOptimizedBuilds(t *testing.T) {
	e, err := BuildOptimized(tinyScope())
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "optimized" {
		t.Fatal("name")
	}
}

func TestBothRejectBadScope(t *testing.T) {
	if _, err := BuildNaive(Scope{}); err == nil {
		t.Error("naive accepted bad scope")
	}
	if _, err := BuildOptimized(Scope{}); err == nil {
		t.Error("optimized accepted bad scope")
	}
}

// Both encodings must admit executions (the model is not vacuous).
func TestBothSatisfiable(t *testing.T) {
	for _, build := range []func(Scope) (*Encoding, error){BuildNaive, BuildOptimized} {
		e, err := build(tinyScope())
		if err != nil {
			t.Fatal(err)
		}
		ok, m := RunSatisfiable(e, sat.Options{})
		if !ok {
			t.Fatalf("%s: background unsatisfiable (%+v)", e.Name, m)
		}
	}
}

// The found instance must satisfy the background per the evaluator
// (translator/evaluator agreement on the full model formula).
func TestInstanceReEvaluates(t *testing.T) {
	e, err := BuildNaive(tinyScope())
	if err != nil {
		t.Fatal(err)
	}
	res := relalg.Solve(&relalg.Problem{Bounds: e.Bounds, Formula: e.Background})
	if res.Status != sat.StatusSat {
		t.Fatal("unsat background")
	}
	if !relalg.NewEvaluator(res.Instance).EvalFormula(e.Background) {
		t.Fatal("instance fails re-evaluation")
	}
}

// E5 shape at the paper's scope: the optimized encoding produces fewer
// clauses and fewer variables than the naive one.
func TestOptimizedSmallerThanNaive(t *testing.T) {
	naive, err := BuildNaive(PaperScope())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := BuildOptimized(PaperScope())
	if err != nil {
		t.Fatal(err)
	}
	mn := MeasureTranslation(naive)
	mo := MeasureTranslation(opt)
	if mo.Clauses >= mn.Clauses {
		t.Fatalf("optimized (%d clauses) not smaller than naive (%d clauses)", mo.Clauses, mn.Clauses)
	}
	t.Logf("naive:     %s", mn)
	t.Logf("optimized: %s", mo)
	t.Logf("clause reduction: %.1f%%", 100*(1-float64(mo.Clauses)/float64(mn.Clauses)))
}

// Clause counts are deterministic across rebuilds.
func TestMeasurementDeterministic(t *testing.T) {
	build := func() Measurement {
		e, err := BuildNaive(tinyScope())
		if err != nil {
			t.Fatal(err)
		}
		return MeasureTranslation(e)
	}
	a, b := build(), build()
	if a.Clauses != b.Clauses || a.PrimaryVars != b.PrimaryVars || a.AuxVars != b.AuxVars {
		t.Fatalf("nondeterministic translation: %+v vs %+v", a, b)
	}
}

// The encoding gap holds across a scope series (2..4 agents), and clause
// counts grow monotonically with scope within each encoding.
func TestScalingSeriesShape(t *testing.T) {
	var naive, opt []Measurement
	for _, p := range []int{2, 3, 4} {
		sc := PaperScope()
		sc.PNodes = p
		// Reset derived pools so withDefaults rescales them per scope.
		sc.Triples = 0
		sc.BidVectors = 0
		n, err := BuildNaive(sc)
		if err != nil {
			t.Fatal(err)
		}
		o, err := BuildOptimized(sc)
		if err != nil {
			t.Fatal(err)
		}
		naive = append(naive, MeasureTranslation(n))
		opt = append(opt, MeasureTranslation(o))
	}
	for i := range naive {
		if opt[i].Clauses >= naive[i].Clauses {
			t.Errorf("scope %s: optimized %d >= naive %d clauses",
				naive[i].Scope, opt[i].Clauses, naive[i].Clauses)
		}
	}
	for i := 1; i < len(naive); i++ {
		if naive[i].Clauses <= naive[i-1].Clauses {
			t.Errorf("naive clause count not growing: %d -> %d", naive[i-1].Clauses, naive[i].Clauses)
		}
		if opt[i].Clauses <= opt[i-1].Clauses {
			t.Errorf("optimized clause count not growing: %d -> %d", opt[i-1].Clauses, opt[i].Clauses)
		}
	}
}
