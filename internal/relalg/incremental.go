package relalg

import (
	"time"

	"repro/internal/portfolio"
	"repro/internal/sat"
)

// Incremental is a persistent solve session over one translated base
// problem. The base bounds and axioms are translated once into one
// solver (and, in parallel mode, one portfolio of diversified members);
// each variant formula is then translated into the same circuit —
// structural hashing shares every common subcircuit — and activated by
// a single assumption literal, so the SAT search keeps its learnt
// clauses, variable activities, and saved phases across variants
// instead of restarting from scratch. This is the sweep-aware
// incremental backend: an ExpandSweep grid whose variants share a base
// pays the translation and the search warm-up once.
//
// Soundness: a variant's activation literal is the Tseitin literal of
// its formula root, whose defining clauses assert full equivalence with
// the formula. Assuming the literal activates the variant; leaving it
// unassumed leaves the clause database equisatisfiable with the base
// alone, because every learnt clause is derived by resolution from real
// clauses and is therefore implied with or without any assumption.
//
// A session is not safe for concurrent use; serialize calls externally.
type Incremental struct {
	solver  *sat.Solver
	circuit *Circuit
	tr      *Translator

	session *portfolio.Session // non-nil in parallel mode
	mark    sat.ClauseMark     // clauses exported to the session so far

	cancel    func() bool
	baseStats TranslationStats
	lastSolve sat.Stats // cumulative counters at the end of the last solve
}

// IncrementalOptions configures an incremental session.
type IncrementalOptions struct {
	// Solver tunes the underlying SAT solver (the portfolio base
	// configuration in parallel mode).
	Solver sat.Options
	// Parallel, when non-nil, backs the session with a persistent
	// portfolio of diversified members instead of one serial solver;
	// every member retains its learnt clauses across variants.
	Parallel *ParallelOptions
	// Cancel is polled cooperatively during each solve.
	Cancel func() bool
}

// NewIncremental translates the base problem (bounds plus the formulas
// shared by every variant — typically the model's axioms) and returns a
// session ready to solve variants against it.
func NewIncremental(b *Bounds, base Formula, opts IncrementalOptions) *Incremental {
	tr, stats := translate(b, base, opts.Solver)
	solver := tr.circuit.solver
	inc := &Incremental{
		solver:    solver,
		circuit:   tr.circuit,
		tr:        tr,
		cancel:    opts.Cancel,
		baseStats: stats,
	}
	if opts.Parallel != nil {
		inc.session = portfolio.NewSession(solver.ExportCNF(), portfolio.Options{
			Workers:  opts.Parallel.Workers,
			CubeVars: 0, // cube splitting is per-solve, not per-session
			Base:     opts.Solver,
			// Poll inc.cancel through a closure so SetCancel swaps the
			// hook for the portfolio members too, not just the serial path.
			Cancel: func() bool { return inc.cancel != nil && inc.cancel() },
		})
		inc.mark = solver.Mark()
	}
	return inc
}

// SetCancel replaces the session's cooperative cancellation hook.
func (inc *Incremental) SetCancel(cancel func() bool) { inc.cancel = cancel }

// Solve decides base ∧ variant and returns the verdict with per-solve
// (not cumulative) solver counters. Equivalent to one-shot solving the
// conjunction: the variant is activated by its gate literal, so UNSAT
// means "unsat together with the base", not unsat absolutely.
func (inc *Incremental) Solve(variant Formula) Result {
	start := time.Now()
	root := inc.tr.TranslateFormula(variant)
	var assumptions []sat.Lit
	unsatNow := false
	switch root {
	case TrueNode:
		// Nothing to activate.
	case FalseNode:
		unsatNow = true
	default:
		assumptions = append(assumptions, inc.circuit.litFor(root))
	}
	stats := inc.translationStats()
	stats.TranslateTime = time.Since(start)

	if unsatNow {
		// The variant simplified to FALSE: one-shot solving would assert
		// the empty clause and answer UNSAT without a search.
		return Result{Status: sat.StatusUnsat, Stats: stats}
	}

	if inc.session != nil {
		// Ship the clauses this variant's translation added to every
		// portfolio member, then race them under the assumptions.
		inc.session.Extend(inc.solver.NumVars(), inc.solver.ExportSince(inc.mark))
		inc.mark = inc.solver.Mark()
		start = time.Now()
		pres := inc.session.SolveAssuming(assumptions...)
		stats.SolveTime = time.Since(start)
		res := Result{Status: pres.Status, Stats: stats, SolverStats: pres.Stats}
		if pres.Status == sat.StatusSat {
			res.Instance = decodeModel(inc.tr, pres.Model)
		}
		return res
	}

	inc.solver.SetCancel(inc.cancel)
	start = time.Now()
	status := inc.solver.SolveAssuming(assumptions...)
	stats.SolveTime = time.Since(start)

	cum := inc.solver.Stats()
	res := Result{Status: status, Stats: stats, SolverStats: cum.Sub(inc.lastSolve)}
	inc.lastSolve = cum
	if status == sat.StatusSat {
		res.Instance = decode(inc.tr, inc.solver)
	}
	return res
}

// translationStats snapshots the session's cumulative translation size.
func (inc *Incremental) translationStats() TranslationStats {
	return TranslationStats{
		PrimaryVars: inc.baseStats.PrimaryVars,
		AuxVars:     inc.circuit.NumGateVars(),
		Clauses:     inc.circuit.NumClauses(),
	}
}

// Stats returns the cumulative translation statistics of the session
// (base plus every variant translated so far).
func (inc *Incremental) Stats() TranslationStats {
	s := inc.translationStats()
	s.TranslateTime = inc.baseStats.TranslateTime
	return s
}
