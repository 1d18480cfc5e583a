package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/relalg"
	"repro/internal/sat"
)

// SAT is the relational/SAT backend adapter: it translates the
// scenario's bounded relational model to CNF (axioms ∧ ¬assertion, the
// Alloy "check" form) and decides it serially, with a diversified
// solver portfolio, or with cube-and-conquer.
type SAT struct {
	// Workers selects the solving strategy: 0 runs one sequential
	// solver; any other value races a portfolio of that many members
	// (negative means one per CPU).
	Workers int
	// CubeVars switches the parallel path to cube-and-conquer on
	// 2^CubeVars cubes; it implies the parallel path even when Workers
	// is unset.
	CubeVars int
	// Sessions, when non-nil, turns on incremental sweep solving for
	// models implementing IncrementalRelationalModel (cube mode excepted
	// — cube splitting is per-solve): variants sharing a base key reuse
	// one persistent translation and solver, keeping learnt clauses,
	// activities, and phases warm across the sweep. Sessions is a
	// runtime handle, never serialized: engine specs omit it and
	// CacheKey normalizes it away, so incremental and one-shot runs of
	// the same scenario share one content address — which is sound
	// because the verdict is identical by construction, only the effort
	// differs.
	Sessions *SessionPool
}

// SessionPool holds the live incremental sessions of a sweep, keyed by
// the model's base key plus the solver and engine configuration (two
// scenarios share a solver only when nothing that could change the
// search differs). Safe for concurrent use by Runner workers; each
// session serializes its own solves.
type SessionPool struct {
	mu       sync.Mutex
	sessions map[string]*satSession
}

// NewSessionPool creates an empty pool, typically one per sweep.
func NewSessionPool() *SessionPool {
	return &SessionPool{sessions: map[string]*satSession{}}
}

// satSession is one persistent translation + solver, seeded by the
// first scenario of its base family.
type satSession struct {
	mu   sync.Mutex
	inc  *relalg.Incremental
	seed IncrementalRelationalModel
}

func (p *SessionPool) get(key string) *satSession {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sessions[key]
	if !ok {
		s = &satSession{}
		p.sessions[key] = s
	}
	return s
}

// Len reports how many distinct base families the pool has seeded.
func (p *SessionPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

// Name identifies the adapter.
func (e SAT) Name() string {
	switch {
	case e.CubeVars > 0:
		return fmt.Sprintf("sat-cube(2^%d)", e.CubeVars)
	case e.serial():
		return "sat"
	case e.Workers < 0:
		return "sat-portfolio"
	default:
		return fmt.Sprintf("sat-portfolio(%d)", e.Workers)
	}
}

func (e SAT) serial() bool { return e.Workers == 0 && e.CubeVars == 0 }

// Verify decides the scenario's relational assertion within bounds. An
// UNSAT answer verifies the assertion for every instance in scope; a
// SAT answer is a counterexample instance; Unknown (budget or
// cancellation) is inconclusive.
func (e SAT) Verify(ctx context.Context, s Scenario) Result {
	start := time.Now()
	if err := Applicable(e, &s); err != nil {
		return errorResult(&s, e.Name(), err)
	}
	if im, ok := s.Model.(IncrementalRelationalModel); ok && e.Sessions != nil && e.CubeVars == 0 {
		return e.verifyIncremental(ctx, s, im, start)
	}
	bounds, axioms, assertion := s.Model.RelationalProblem()
	p := &relalg.Problem{
		Bounds: bounds,
		// Alloy's check command: a model of axioms ∧ ¬assertion is a
		// counterexample to the assertion.
		Formula:       relalg.And(axioms, relalg.Not(assertion)),
		SolverOptions: s.Solver,
		Cancel:        cancelHook(ctx),
	}
	if !e.serial() {
		workers := e.Workers
		if workers < 0 {
			workers = 0 // portfolio default: one member per CPU
		}
		p.Parallel = &relalg.ParallelOptions{Workers: workers, CubeVars: e.CubeVars}
	}
	r := relalg.Solve(p)
	return e.satResult(ctx, &s, r, start)
}

// verifyIncremental routes the scenario through the pool's persistent
// session for its base family: the first scenario seeds the session
// (translating bounds and axioms once), later ones only translate their
// assertion into the shared circuit and solve under its activation
// literal, inheriting every learnt clause of the sweep so far.
func (e SAT) verifyIncremental(ctx context.Context, s Scenario, im IncrementalRelationalModel, start time.Time) Result {
	baseKey, variantKey := im.IncrementalKeys()
	sess := e.Sessions.get(fmt.Sprintf("%s|solver=%+v|workers=%d", baseKey, s.Solver, e.Workers))
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.inc == nil {
		bounds, axioms, _ := im.RelationalProblem()
		var par *relalg.ParallelOptions
		if !e.serial() {
			workers := e.Workers
			if workers < 0 {
				workers = 0 // portfolio default: one member per CPU
			}
			par = &relalg.ParallelOptions{Workers: workers}
		}
		sess.inc = relalg.NewIncremental(bounds, axioms, relalg.IncrementalOptions{
			Solver:   s.Solver,
			Parallel: par,
		})
		sess.seed = im
	}
	// Rebuild the variant's assertion over the SEED model's relations:
	// this scenario's own formula points at different relation values
	// (each decode mints fresh ones), which the seed's translator would
	// treat as brand-new relations.
	assertion, err := sess.seed.AssertionFor(variantKey)
	if err != nil {
		return errorResult(&s, e.Name(), err)
	}
	sess.inc.SetCancel(cancelHook(ctx))
	r := sess.inc.Solve(relalg.Not(assertion))
	return e.satResult(ctx, &s, r, start)
}

// satResult maps a relational solve onto the unified Result shape.
func (e SAT) satResult(ctx context.Context, s *Scenario, r relalg.Result, start time.Time) Result {
	res := Result{
		Index:     -1,
		Scenario:  s.Name,
		Engine:    e.Name(),
		SATStatus: r.Status,
		Stats: Stats{
			PrimaryVars:   r.Stats.PrimaryVars,
			AuxVars:       r.Stats.AuxVars,
			Clauses:       r.Stats.Clauses,
			TranslateTime: r.Stats.TranslateTime,
			SolveTime:     r.Stats.SolveTime,
			Conflicts:     r.SolverStats.Conflicts,
			Propagations:  r.SolverStats.Propagations,
			LearntClauses: r.SolverStats.Learnt,
			Wall:          time.Since(start),
		},
	}
	switch r.Status {
	case sat.StatusUnsat:
		res.Status = StatusHolds
	case sat.StatusSat:
		res.Status = StatusViolated
	default:
		res.Status = StatusInconclusive
		if ctx != nil && ctx.Err() != nil {
			res.Err = ctx.Err()
		}
	}
	return res
}
