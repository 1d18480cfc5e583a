// Command satsolve is a DIMACS CNF solver built on the library's CDCL
// engine — the bottom of the verification stack, usable standalone.
//
// Usage:
//
//	satsolve [-stats] [-maxconflicts N] [-workers N] [-timeout D] file.cnf
//	cat file.cnf | satsolve
//
// -workers races a portfolio of N diversified solvers; -timeout aborts
// the search after a wall-clock deadline through the engine layer's
// cooperative cancellation (exit "s UNKNOWN"). Output
// follows the SAT-competition convention: an "s" status line and, for
// satisfiable instances, a "v" model line.
//
// -incremental switches to iCNF-style incremental solving: besides the
// DIMACS clauses, the input may carry assumption lines of the form
// "a <lit> ... 0"; each is decided in order by SolveAssuming on one
// persistent solver, so learnt clauses accumulate across the queries,
// and each query prints its own status (and model) line. An input
// without assumption lines gets a single unassumed solve.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/portfolio"
	"repro/internal/sat"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout))
}

func run(args []string, stdin io.Reader, stdout io.Writer) int {
	fs := flag.NewFlagSet("satsolve", flag.ContinueOnError)
	stats := fs.Bool("stats", false, "print solver statistics")
	maxConflicts := fs.Int64("maxconflicts", 0, "conflict budget (0 = unlimited)")
	workers := fs.Int("workers", 1, "parallel solvers: >1 races a portfolio, 0 means one per core")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline for the search (0 = none)")
	incremental := fs.Bool("incremental", false, "solve each 'a <lits> 0' assumption line in turn on one persistent solver")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *incremental && *workers != 1 {
		fmt.Fprintln(os.Stderr, "satsolve: -incremental is serial; drop -workers")
		return 2
	}

	ctx := context.Background()
	var cancelled func() bool
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		cancelled = func() bool { return ctx.Err() != nil }
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		in = f
	}

	opts := sat.Options{MaxConflicts: *maxConflicts}
	if *incremental {
		return runIncremental(in, stdout, opts, cancelled, *stats)
	}

	cnf, err := sat.ParseDIMACS(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var status sat.Status
	var model []bool
	var st sat.Stats
	if *workers != 1 {
		pw := *workers
		if pw == 0 {
			pw = runtime.GOMAXPROCS(0) // default: one worker per core
		}
		res := portfolio.SolvePortfolio(cnf, portfolio.Options{Workers: pw, Base: opts, Cancel: cancelled})
		status, model, st = res.Status, res.Model, res.Stats
		if *stats {
			fmt.Fprintf(stdout, "c portfolio workers=%d winner=%d\n", pw, res.Winner)
		}
	} else {
		solver := sat.NewSolverWithOptions(opts)
		if err := cnf.LoadInto(solver); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if cancelled != nil {
			solver.SetCancel(cancelled)
		}
		status = solver.Solve()
		st = solver.Stats()
		if status == sat.StatusSat {
			model = solver.Model()
		}
	}
	if *stats {
		printStats(stdout, st)
		fmt.Fprintf(stdout, "c vars=%d clauses=%d\n", cnf.NumVars, cnf.NumClauses())
	}
	return printVerdict(stdout, status, model, cnf.NumVars)
}

// printStats renders the solver counters, including the LBD profile of
// the learnt-clause database and the arena compaction count.
func printStats(w io.Writer, st sat.Stats) {
	fmt.Fprintf(w, "c conflicts=%d decisions=%d propagations=%d restarts=%d learnt=%d deleted=%d\n",
		st.Conflicts, st.Decisions, st.Propagations, st.Restarts, st.Learnt, st.Deleted)
	if st.Learnt > 0 {
		fmt.Fprintf(w, "c lbd mean=%.2f glue=%d hist=", st.MeanLBD(), st.GlueLearnt)
		for i, n := range st.LBDHist {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if i == len(st.LBDHist)-1 {
				fmt.Fprintf(w, "%d+:%d", i+1, n)
			} else {
				fmt.Fprintf(w, "%d:%d", i+1, n)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "c arena gcs=%d\n", st.ArenaGCs)
}

// printVerdict writes the competition-style status (and model) lines
// and returns the matching exit code.
func printVerdict(w io.Writer, status sat.Status, model []bool, numVars int) int {
	switch status {
	case sat.StatusSat:
		fmt.Fprintln(w, "s SATISFIABLE")
		fmt.Fprint(w, "v")
		for v := 0; v < numVars; v++ {
			lit := v + 1
			if !model[v] {
				lit = -lit
			}
			fmt.Fprintf(w, " %d", lit)
		}
		fmt.Fprintln(w, " 0")
		return 10
	case sat.StatusUnsat:
		fmt.Fprintln(w, "s UNSATISFIABLE")
		return 20
	default:
		fmt.Fprintln(w, "s UNKNOWN")
		return 0
	}
}

// runIncremental implements -incremental: read the DIMACS clauses and
// iCNF assumption lines ("a <lits> 0"), load the clauses into one
// persistent solver, and decide each assumption set in order.
// Learnt clauses, activities, and phases carry over between queries.
// Stats printed per query are that query's deltas, not running totals.
func runIncremental(in io.Reader, stdout io.Writer, opts sat.Options, cancelled func() bool, stats bool) int {
	// Assumption literals pass the checks clause literals do (range,
	// variables per byte of input) and may name variables past the
	// clause section; the parser counts those into the formula, so
	// LoadInto creates them.
	cnf, queries, err := sat.ParseICNF(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(queries) == 0 {
		queries = append(queries, nil) // plain solve
	}
	solver := sat.NewSolverWithOptions(opts)
	if err := cnf.LoadInto(solver); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if cancelled != nil {
		solver.SetCancel(cancelled)
	}
	code := 0
	var prev sat.Stats
	for i, q := range queries {
		status := solver.SolveAssuming(q...)
		var model []bool
		if status == sat.StatusSat {
			model = solver.Model()
		}
		if stats {
			cum := solver.Stats()
			fmt.Fprintf(stdout, "c query %d assumptions=%d\n", i+1, len(q))
			printStats(stdout, cum.Sub(prev))
			prev = cum
		}
		code = printVerdict(stdout, status, model, solver.NumVars())
	}
	return code
}
