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

// Translation is a bounded formula translated to CNF: the translator,
// for decoding instances, and a solver holding the clauses. The
// solver of a Translation made by Translate is never searched — Solve
// searches a copy of it — so one translation serves any number of
// solves, from any number of goroutines at once.
type Translation struct {
	tr     *Translator
	solver *sat.Solver
	stats  TranslationStats
}

// translate asserts a bounded formula into a fresh solver tuned by
// opts — the set-up every entry point (Solve, Translate,
// TranslateToCNF, TranslateOnly, NewEnumerator, NewIncremental) starts
// from. The stats leave SolveTime to the caller.
func translate(b *Bounds, f Formula, opts sat.Options) *Translation {
	solver := sat.NewSolverWithOptions(opts)
	circuit := NewCircuit(solver)
	tr := NewTranslator(b, circuit)
	start := time.Now()
	circuit.Assert(tr.TranslateFormula(f))
	return &Translation{tr: tr, solver: solver, stats: TranslationStats{
		PrimaryVars:   tr.NumPrimaryVars(),
		AuxVars:       circuit.NumGateVars(),
		Clauses:       circuit.NumClauses(),
		TranslateTime: time.Since(start),
	}}
}

// Translate translates a bounded formula once, for solving many times
// under different solver options. It keeps only what a solve reads:
// the circuit and the translator's caches are dropped, leaving the
// clauses and the primary variables of the bounds' relations. The
// solver kept is a copy of the one the clauses went into: a copy drops
// the room its watch lists left behind as they grew, so each solve's
// copy of it is a few flat copies.
func Translate(b *Bounds, f Formula) *Translation {
	t := translate(b, f, sat.Options{})
	t.tr = &Translator{bounds: t.tr.bounds, usize: t.tr.usize, primaryVars: t.tr.primaryVars}
	t.solver = t.solver.Clone(sat.Options{})
	return t
}

// Stats returns the size of the translation and the time it took.
func (t *Translation) Stats() TranslationStats { return t.stats }

// Solve searches the translated formula under opts; workers and cancel
// mean what Problem's Workers and Cancel do. The result equals Solve's
// on the same bounds, formula and options — status, instance and every
// solver counter — except for the times: its TranslateTime is the time
// taken to copy the translation for this search.
func (t *Translation) Solve(opts sat.Options, workers int, cancel func() bool) Result {
	start := time.Now()
	var s *sat.Solver
	if workers == 0 {
		s = t.solver.Clone(opts)
	}
	stats := t.stats
	stats.TranslateTime = time.Since(start)
	return t.search(s, stats, opts, workers, cancel)
}

// search is the tail of every one-shot solve. A portfolio (workers ≠ 0)
// races fresh solvers on the CNF exported from the translation's
// solver; otherwise s, a solver over the translation's clauses that
// the caller owns, is searched.
func (t *Translation) search(s *sat.Solver, stats TranslationStats, opts sat.Options, workers int, cancel func() bool) Result {
	if workers != 0 {
		cnf := t.solver.ExportCNF()
		start := time.Now()
		pres := portfolio.SolvePortfolio(cnf, portfolio.Options{
			Workers: workers,
			Base:    opts,
			Cancel:  cancel,
		})
		stats.SolveTime = time.Since(start)
		res := Result{Status: pres.Status, Stats: stats, SolverStats: pres.Stats}
		if pres.Status == sat.StatusSat {
			res.Instance = decodeModel(t.tr, pres.Model)
		}
		return res
	}

	if cancel != nil {
		s.SetCancel(cancel)
	}
	start := time.Now()
	status := s.Solve()
	stats.SolveTime = time.Since(start)

	res := Result{Status: status, Stats: stats, SolverStats: s.Stats()}
	if status == sat.StatusSat {
		res.Instance = decode(t.tr, s)
	}
	return res
}

// Solve searches for an instance within bounds satisfying the formula
// (Alloy's "run" command).
func Solve(p *Problem) Result {
	t := translate(p.Bounds, p.Formula, p.SolverOptions)
	return t.search(t.solver, t.stats, p.SolverOptions, p.Workers, p.Cancel)
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
	t := translate(b, f, sat.Options{})
	return t.solver.ExportCNF(), t.stats
}

// TranslateOnly builds the CNF without solving — used by the clause-count
// experiment (E5) where only translation size matters.
func TranslateOnly(b *Bounds, f Formula) TranslationStats {
	return translate(b, f, sat.Options{}).stats
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
	t := translate(p.Bounds, p.Formula, p.SolverOptions)
	return &Enumerator{solver: t.solver, tr: t.tr, bounds: p.Bounds, stats: t.stats}
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
