package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sat"
)

func TestRunSat(t *testing.T) {
	in := strings.NewReader("p cnf 2 2\n1 2 0\n-1 0\n")
	var out bytes.Buffer
	code := run([]string{"-stats"}, in, &out)
	if code != 10 {
		t.Fatalf("exit code = %d, want 10", code)
	}
	s := out.String()
	if !strings.Contains(s, "s SATISFIABLE") {
		t.Fatalf("missing status line:\n%s", s)
	}
	if !strings.Contains(s, "v -1 2 0") {
		t.Fatalf("model line wrong:\n%s", s)
	}
	if !strings.Contains(s, "c vars=2") {
		t.Fatalf("stats missing:\n%s", s)
	}
}

func TestRunUnsat(t *testing.T) {
	in := strings.NewReader("p cnf 1 2\n1 0\n-1 0\n")
	var out bytes.Buffer
	code := run(nil, in, &out)
	if code != 20 {
		t.Fatalf("exit code = %d, want 20", code)
	}
	if !strings.Contains(out.String(), "s UNSATISFIABLE") {
		t.Fatalf("missing unsat line:\n%s", out.String())
	}
}

func TestRunParseError(t *testing.T) {
	in := strings.NewReader("p dnf 1 1\n1 0\n")
	var out bytes.Buffer
	if code := run(nil, in, &out); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestRunMissingFile(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"/nonexistent/file.cnf"}, strings.NewReader(""), &out); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, strings.NewReader(""), &out); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestRunPortfolioWorkers(t *testing.T) {
	in := strings.NewReader("p cnf 2 2\n1 2 0\n-1 0\n")
	var out bytes.Buffer
	code := run([]string{"-stats", "-workers", "3"}, in, &out)
	if code != 10 {
		t.Fatalf("exit code = %d, want 10\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "s SATISFIABLE") || !strings.Contains(s, "v -1 2 0") {
		t.Fatalf("portfolio output wrong:\n%s", s)
	}
	if !strings.Contains(s, "c portfolio workers=3") {
		t.Fatalf("portfolio stats missing:\n%s", s)
	}
}

// TestRunTimeout: a pigeonhole instance far beyond the 1ns deadline
// must come back UNKNOWN through the cooperative cancellation, for both
// the serial and the portfolio paths.
func TestRunTimeout(t *testing.T) {
	var dimacs strings.Builder
	if err := sat.PigeonholeCNF(10).WriteDIMACS(&dimacs); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-workers", "2"}} {
		args := append([]string{"-timeout", "1ns"}, extra...)
		var out bytes.Buffer
		code := run(args, strings.NewReader(dimacs.String()), &out)
		if code != 0 || !strings.Contains(out.String(), "s UNKNOWN") {
			t.Fatalf("args %v: exit=%d output:\n%s", args, code, out.String())
		}
	}
}

func TestRunIncremental(t *testing.T) {
	// (x1 ∨ x2): SAT under x1, SAT under ¬x1 (forces x2), UNSAT under
	// {¬x1, ¬x2}.
	in := strings.NewReader("p inccnf\np cnf 2 1\n1 2 0\na 1 0\na -1 0\na -1 -2 0\n")
	var out bytes.Buffer
	code := run([]string{"-incremental", "-stats"}, in, &out)
	if code != 20 { // last query is UNSAT
		t.Fatalf("exit code = %d, want 20:\n%s", code, out.String())
	}
	s := out.String()
	if n := strings.Count(s, "s SATISFIABLE"); n != 2 {
		t.Fatalf("want 2 SAT answers, got %d:\n%s", n, s)
	}
	if n := strings.Count(s, "s UNSATISFIABLE"); n != 1 {
		t.Fatalf("want 1 UNSAT answer, got %d:\n%s", n, s)
	}
	if !strings.Contains(s, "c query 3 assumptions=2") {
		t.Fatalf("missing per-query stats header:\n%s", s)
	}
	if !strings.Contains(s, "c arena gcs=") {
		t.Fatalf("missing arena stats:\n%s", s)
	}
}

// Assumption lines are untrusted input like the clauses: a literal no
// Lit can hold used to wrap onto another variable or overflow abs, and
// one merely huge used to size the solver. Each is a parse error now;
// an assumption on a variable just past the clause section still works.
func TestRunIncrementalAssumptionBounds(t *testing.T) {
	for _, tc := range []struct {
		asm  string
		code int
	}{
		{"a 1073741825 0", 2},           // allocated gigabytes
		{"a 4294967297 0", 2},           // wrapped onto variable 1
		{"a -9223372036854775808 0", 2}, // overflowed abs
		{"a 1073741824 0", 2},           // in range, still a billion variables for one literal
		{"a potato 0", 2},
		{"a 2 0", 10},
		{"a -1 0", 20},
	} {
		var out bytes.Buffer
		code := run([]string{"-incremental"}, strings.NewReader("p cnf 1 1\n1 0\n"+tc.asm+"\n"), &out)
		if code != tc.code {
			t.Errorf("%q: exit code = %d, want %d:\n%s", tc.asm, code, tc.code, out.String())
		}
		if tc.code == 2 && out.Len() != 0 {
			t.Errorf("%q: rejected input still printed a verdict:\n%s", tc.asm, out.String())
		}
	}
}

func TestRunIncrementalRejectsParallel(t *testing.T) {
	in := strings.NewReader("p cnf 1 1\n1 0\n")
	var out bytes.Buffer
	if code := run([]string{"-incremental", "-workers", "2"}, in, &out); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestRunStatsLBDProfile(t *testing.T) {
	// PHP(5,4) is UNSAT with enough conflicts to learn clauses.
	var in bytes.Buffer
	cnf := sat.PigeonholeCNF(4)
	in.WriteString("p cnf ")
	in.WriteString(itoa(cnf.NumVars))
	in.WriteString(" ")
	in.WriteString(itoa(cnf.NumClauses()))
	in.WriteString("\n")
	for _, c := range cnf.Clauses {
		for _, l := range c {
			in.WriteString(l.String())
			in.WriteString(" ")
		}
		in.WriteString("0\n")
	}
	var out bytes.Buffer
	if code := run([]string{"-stats"}, &in, &out); code != 20 {
		t.Fatalf("exit code = %d, want 20:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "c lbd mean=") {
		t.Fatalf("missing LBD profile:\n%s", out.String())
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
