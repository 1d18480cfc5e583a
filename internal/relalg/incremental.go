package relalg

import (
	"time"

	"repro/internal/sat"
)

// Incremental is a persistent solve session over one translated base
// problem. The base bounds and axioms are translated once into one
// solver; each variant formula is then translated into the same circuit
// — structural hashing shares every common subcircuit — and activated
// by a single assumption literal, so the SAT search keeps its learnt
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

	cancel    func() bool
	baseStats TranslationStats
	lastSolve sat.Stats // cumulative counters at the end of the last solve
}

// NewIncremental translates the base problem (bounds plus the formulas
// shared by every variant — typically the model's axioms) into a solver
// tuned by opts and returns a session ready to solve variants against
// it.
func NewIncremental(b *Bounds, base Formula, opts sat.Options) *Incremental {
	t := translate(b, base, opts)
	return &Incremental{
		solver:    t.solver,
		circuit:   t.tr.circuit,
		tr:        t.tr,
		baseStats: t.stats,
	}
}

// SetCancel replaces the session's cooperative cancellation hook, polled
// during each later solve.
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
