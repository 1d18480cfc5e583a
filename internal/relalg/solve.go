package relalg

import (
	"time"

	"repro/internal/portfolio"
	"repro/internal/sat"
)

// TranslationStats reports the size of the CNF produced for a problem —
// the quantity the paper's "Abstractions Efficiency" experiment compares
// between the naive and the optimized MCA model encodings.
type TranslationStats struct {
	PrimaryVars   int           // one per undetermined tuple
	AuxVars       int           // Tseitin gate variables
	Clauses       int           // CNF clauses emitted
	TranslateTime time.Duration // relational → CNF time
	SolveTime     time.Duration // SAT search time
}

// TotalVars is the complete SAT variable count.
func (s TranslationStats) TotalVars() int { return s.PrimaryVars + s.AuxVars }

// Problem is a bounded relational satisfiability problem.
type Problem struct {
	Bounds  *Bounds
	Formula Formula
	// SolverOptions tunes the underlying SAT solver.
	SolverOptions sat.Options
	// Workers, when non-zero, races a portfolio of that many
	// diversified solvers on the translated CNF (negative: one per CPU)
	// instead of running one sequential solver. See internal/portfolio.
	Workers int
	// Cancel, when non-nil, is polled cooperatively during the SAT
	// search (serial or portfolio); once it returns true the solve stops
	// with StatusUnknown. Driven by the engine layer from
	// context.Context cancellation and deadlines.
	Cancel func() bool
}

// Result is the outcome of Solve or Check.
type Result struct {
	Status      sat.Status
	Instance    *Instance // satisfying instance (Solve) or counterexample (Check); nil when unsat
	Stats       TranslationStats
	SolverStats sat.Stats
}

// translate asserts a bounded formula into a fresh solver — the set-up
// every entry point (Solve, TranslateToCNF, TranslateOnly,
// NewEnumerator, NewIncremental) starts from. The circuit and solver
// are the returned translator's; the stats leave SolveTime to the
// caller.
func translate(b *Bounds, f Formula, opts sat.Options) (*Translator, TranslationStats) {
	circuit := NewCircuit(sat.NewSolverWithOptions(opts))
	tr := NewTranslator(b, circuit)
	start := time.Now()
	circuit.Assert(tr.TranslateFormula(f))
	return tr, TranslationStats{
		PrimaryVars:   tr.NumPrimaryVars(),
		AuxVars:       circuit.NumGateVars(),
		Clauses:       circuit.NumClauses(),
		TranslateTime: time.Since(start),
	}
}

// Solve searches for an instance within bounds satisfying the formula
// (Alloy's "run" command).
func Solve(p *Problem) Result {
	tr, stats := translate(p.Bounds, p.Formula, p.SolverOptions)
	solver := tr.circuit.solver

	if p.Workers != 0 {
		// Hand the translated formula to the portfolio: export the CNF
		// the circuit emitted into the translation solver and race fresh
		// solvers on it.
		cnf := solver.ExportCNF()
		start := time.Now()
		pres := portfolio.SolvePortfolio(cnf, portfolio.Options{
			Workers: p.Workers,
			Base:    p.SolverOptions,
			Cancel:  p.Cancel,
		})
		stats.SolveTime = time.Since(start)
		res := Result{Status: pres.Status, Stats: stats, SolverStats: pres.Stats}
		if pres.Status == sat.StatusSat {
			res.Instance = decodeModel(tr, pres.Model)
		}
		return res
	}

	if p.Cancel != nil {
		solver.SetCancel(p.Cancel)
	}
	start := time.Now()
	status := solver.Solve()
	stats.SolveTime = time.Since(start)

	res := Result{Status: status, Stats: stats, SolverStats: solver.Stats()}
	if status == sat.StatusSat {
		res.Instance = decode(tr, solver)
	}
	return res
}

// Check verifies that the assertion holds under the axioms within bounds
// (Alloy's "check" command): it solves axioms ∧ ¬assertion. A SAT answer
// is a counterexample to the assertion; UNSAT means the assertion holds
// in every instance within the bounds.
func Check(b *Bounds, axioms, assertion Formula, opts sat.Options) Result {
	return Solve(&Problem{
		Bounds:        b,
		Formula:       And(axioms, Not(assertion)),
		SolverOptions: opts,
	})
}

// TranslateToCNF builds the CNF for a bounded formula and returns it as
// a standalone formula together with the translation stats — the bridge
// for callers that want to drive the SAT backend themselves (solver
// portfolios, DIMACS export, repeated solving of one translation).
func TranslateToCNF(b *Bounds, f Formula) (*sat.CNF, TranslationStats) {
	tr, stats := translate(b, f, sat.Options{})
	return tr.circuit.solver.ExportCNF(), stats
}

// TranslateOnly builds the CNF without solving — used by the clause-count
// experiment (E5) where only translation size matters.
func TranslateOnly(b *Bounds, f Formula) TranslationStats {
	_, stats := translate(b, f, sat.Options{})
	return stats
}

func decode(tr *Translator, solver *sat.Solver) *Instance {
	return decodeWith(tr, func(v sat.Var) bool { return solver.Value(v) == sat.True })
}

// decodeModel decodes an instance from a plain model vector (the
// portfolio's output).
func decodeModel(tr *Translator, model []bool) *Instance {
	return decodeWith(tr, func(v sat.Var) bool { return int(v) < len(model) && model[v] })
}

func decodeWith(tr *Translator, value func(sat.Var) bool) *Instance {
	b := tr.bounds
	inst := NewInstance(b.Universe())
	for _, r := range b.Relations() {
		ts := b.Lower(r).Clone()
		usize := b.Universe().Size()
		for k, v := range tr.PrimaryVars(r) {
			if value(v) {
				ts.Add(keyToTuple(k, usize, r.Arity))
			}
		}
		inst.Set(r, ts)
	}
	return inst
}

// Enumerator iterates over all instances of a problem, in some order,
// by adding blocking clauses over the primary variables after each model.
type Enumerator struct {
	solver *sat.Solver
	tr     *Translator
	bounds *Bounds
	stats  TranslationStats
	done   bool
}

// NewEnumerator prepares instance enumeration for a problem.
func NewEnumerator(p *Problem) *Enumerator {
	tr, stats := translate(p.Bounds, p.Formula, p.SolverOptions)
	return &Enumerator{solver: tr.circuit.solver, tr: tr, bounds: p.Bounds, stats: stats}
}

// Stats returns the translation statistics.
func (e *Enumerator) Stats() TranslationStats { return e.stats }

// Next returns the next instance, or nil when exhausted.
func (e *Enumerator) Next() *Instance {
	if e.done {
		return nil
	}
	if e.solver.Solve() != sat.StatusSat {
		e.done = true
		return nil
	}
	inst := decode(e.tr, e.solver)
	// Block this valuation of the primary variables.
	var block []sat.Lit
	for _, r := range e.bounds.Relations() {
		for _, v := range e.tr.PrimaryVars(r) {
			block = append(block, sat.MkLit(v, e.solver.Value(v) == sat.True))
		}
	}
	if len(block) == 0 {
		// Fully determined problem: at most one instance.
		e.done = true
		return inst
	}
	if err := e.solver.AddClause(block...); err != nil {
		e.done = true
	}
	return inst
}
