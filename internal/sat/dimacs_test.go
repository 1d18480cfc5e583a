package sat

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestParseDIMACSBasic(t *testing.T) {
	in := `c a comment
p cnf 3 2
1 -2 0
2 3 0
`
	f, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 2 {
		t.Fatalf("parsed vars=%d clauses=%d", f.NumVars, f.NumClauses())
	}
	if f.Clauses[0][0] != PosLit(0) || f.Clauses[0][1] != NegLit(1) {
		t.Fatalf("clause 0 = %v", f.Clauses[0])
	}
}

func TestParseDIMACSMultilineClause(t *testing.T) {
	in := "p cnf 2 1\n1\n2 0\n"
	f, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 || len(f.Clauses[0]) != 2 {
		t.Fatalf("parsed %v", f.Clauses)
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := []string{
		"p cnf x 2\n1 0\n",
		"p dnf 1 1\n1 0\n",
		"p cnf 1 1\n1 z 0\n",
		"p cnf 1 1\n1\n", // unterminated clause
		// Out-of-range literals used to wrap through Var's int32 onto
		// variable 1 (a wrong SATISFIABLE) or reach AddClause's panic.
		"p cnf 1 1\n4294967297 0\n",
		"p cnf 1 1\n-9223372036854775808 0\n",
		"p cnf 1 1\n1073741825 0\n",
		"p cnf -1 0\n",
		"p cnf 1073741825 0\n",
		// In range, but LoadInto would allocate for variables no clause uses.
		"p cnf 1000000000 0\n",
		"p cnf 1 1\n1000000000 0\n",
	}
	for _, in := range cases {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// The largest representable variable parses; a generous header is fine
// as long as the clauses keep pace with it.
func TestParseDIMACSLimits(t *testing.T) {
	f, err := ParseDIMACS(strings.NewReader("p cnf 1048577 1\n1 0\n"))
	if err != nil || f.NumVars != 1048577 {
		t.Fatalf("header one past the unused-variable slack with one literal: %v, %v", f, err)
	}
	if _, err := ParseDIMACS(strings.NewReader("p cnf 1048578 1\n1 0\n")); err == nil {
		t.Fatal("header beyond the unused-variable slack accepted")
	}
	if l := MkLit(Var(maxDIMACSVar-1), true); l < 0 || l.Var() != Var(maxDIMACSVar-1) || !l.Neg() {
		t.Fatalf("largest DIMACS variable does not fit Lit: %d", l)
	}
}

// ParseICNF hands back one literal set per assumption line, in order,
// holds those literals to the clause literals' bounds, and counts the
// variables they name into the formula.
func TestParseICNF(t *testing.T) {
	f, sets, err := ParseICNF(strings.NewReader("p inccnf\np cnf 2 1\n1 2 0\na -1 3 0 2 0\na 0\na\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Lit{{MkLit(0, true), MkLit(2, false)}, nil, nil}
	if !reflect.DeepEqual(sets, want) {
		t.Fatalf("assumption sets %v, want %v", sets, want)
	}
	if f.NumVars != 3 || f.NumClauses() != 1 {
		t.Fatalf("formula has %d vars, %d clauses; want 3 (one from an assumption), 1", f.NumVars, f.NumClauses())
	}
	for _, in := range []string{
		"p cnf 1 1\n1 0\na 1073741825 0\n",           // past the largest variable a Lit holds
		"p cnf 1 1\n1 0\na 4294967297 0\n",           // would wrap onto variable 1
		"p cnf 1 1\n1 0\na -9223372036854775808 0\n", // has no absolute value
		"p cnf 1 1\n1 0\na 1073741824 0\n",           // in range, a billion variables for one literal
		"p cnf 1 1\n1 0\na x 0\n",
	} {
		if _, _, err := ParseICNF(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
	// Plain DIMACS has no assumption lines.
	if _, err := ParseDIMACS(strings.NewReader("p cnf 1 1\n1 0\na 1 0\n")); err == nil {
		t.Error("ParseDIMACS accepted an assumption line")
	}
}

// FuzzParseDIMACS: arbitrary input either fails to parse or round-trips
// through WriteDIMACS to an equal formula, and a formula of modest size
// loads into a solver — never a panic. Read as iCNF, the same input
// either fails or yields assumptions over the formula's own variables.
// The seed corpus runs under plain go test.
func FuzzParseDIMACS(f *testing.F) {
	var php bytes.Buffer
	if err := PigeonholeCNF(3).WriteDIMACS(&php); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"p cnf 1 1\n4294967297 0\n",
		"p cnf 1 1\n-9223372036854775808 0\n",
		"",
		"c nothing but a comment\n",
		php.String(),
		"p cnf 2 1\n1 -2\n", // unterminated clause
		"p cnf 3 2\n1 -2 0\n0\n",
		"p inccnf\np cnf 2 1\n1 2 0\na -1 3 0\na 4294967297 0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if icnf, sets, err := ParseICNF(bytes.NewReader(data)); err == nil {
			for _, set := range sets {
				for _, l := range set {
					if l < 0 || int(l.Var()) >= icnf.NumVars {
						t.Fatalf("assumption literal %d outside the formula's %d variables", l, icnf.NumVars)
					}
				}
			}
		}
		cnf, err := ParseDIMACS(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := cnf.WriteDIMACS(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ParseDIMACS(&buf)
		if err != nil {
			t.Fatalf("re-parsing our own output: %v", err)
		}
		if !reflect.DeepEqual(cnf, back) {
			t.Fatalf("round trip changed the formula: %+v -> %+v", cnf, back)
		}
		if cnf.NumVars <= 1<<12 {
			if err := cnf.LoadInto(NewSolver()); err != nil {
				t.Fatalf("loading a parsed formula: %v", err)
			}
		}
	})
}

func TestDIMACSRoundTrip(t *testing.T) {
	f := randomCNF(10, 30, 3, 11)
	var buf bytes.Buffer
	if err := f.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars != f.NumVars || g.NumClauses() != f.NumClauses() {
		t.Fatalf("roundtrip mismatch: vars %d/%d clauses %d/%d",
			g.NumVars, f.NumVars, g.NumClauses(), f.NumClauses())
	}
	for i := range f.Clauses {
		for j := range f.Clauses[i] {
			if f.Clauses[i][j] != g.Clauses[i][j] {
				t.Fatalf("clause %d differs: %v vs %v", i, f.Clauses[i], g.Clauses[i])
			}
		}
	}
}

func TestCNFEval(t *testing.T) {
	f := &CNF{}
	f.AddClause(PosLit(0), NegLit(1))
	if !f.Eval([]bool{true, true}) {
		t.Error("model {t,t} should satisfy (x ∨ ¬y)")
	}
	if f.Eval([]bool{false, true}) {
		t.Error("model {f,t} should falsify (x ∨ ¬y)")
	}
}

func TestCountModels(t *testing.T) {
	f := &CNF{}
	f.AddClause(PosLit(0), PosLit(1))
	if got := CountModels(f, 2); got != 3 {
		t.Fatalf("CountModels = %d, want 3", got)
	}
}

func TestSolveBruteSat(t *testing.T) {
	f := &CNF{}
	f.AddClause(PosLit(0), PosLit(1))
	f.AddClause(NegLit(0))
	status, model := SolveBrute(f)
	if status != StatusSat {
		t.Fatalf("status = %v", status)
	}
	if model[0] || !model[1] {
		t.Fatalf("model = %v, want [false true]", model)
	}
}

func TestSolveBruteUnsat(t *testing.T) {
	f := &CNF{}
	f.AddClause(PosLit(0))
	f.AddClause(NegLit(0))
	if status, _ := SolveBrute(f); status != StatusUnsat {
		t.Fatalf("status = %v, want UNSAT", status)
	}
}
