package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/mcamodel"
	"repro/internal/relalg"
	"repro/internal/sat"
)

// SAT is the relational/SAT backend adapter: it translates the
// scenario's bounded relational model to CNF (axioms ∧ ¬assertion, the
// Alloy "check" form) and decides it with one sequential solver or
// with a race of diversified solvers. A one-shot check translates each
// model family once per process (satmemo.go) and searches a copy.
type SAT struct {
	// Workers selects the solving strategy: 0 runs one sequential
	// solver; any other value races a portfolio of that many members
	// (negative means one per CPU).
	Workers int
	// Sessions, when non-nil, turns on incremental sweep solving on the
	// sequential solver: models of one encoding and scope, differing only
	// in their assert state, reuse one persistent translation and solver,
	// keeping learnt clauses, activities, and phases warm across the
	// sweep. A portfolio engine
	// (Workers ≠ 0) ignores it and solves each scenario one-shot, with
	// fresh members, so no clause crosses between solvers. Sessions is a
	// runtime handle, never serialized: engine specs omit it and
	// CacheKey normalizes it away, so incremental and one-shot runs of
	// the same scenario share one content address — which is sound
	// because the verdict is identical by construction, only the effort
	// differs.
	Sessions *SessionPool
}

// SessionPool holds the live incremental sessions of a sweep, keyed by
// the model's base family plus the solver configuration (two scenarios
// share a solver only when nothing that could change the search
// differs). Safe for concurrent use by Runner workers; each
// session serializes its own solves.
type SessionPool struct {
	mu       sync.Mutex
	sessions map[sessionKey]*satSession
}

// sessionKey names a base family: models built by one encoding at one
// scope share bounds and background, and differ only in the assertion.
type sessionKey struct {
	encoding string
	scope    mcamodel.Scope
	solver   sat.Options
}

// NewSessionPool creates an empty pool, typically one per sweep.
func NewSessionPool() *SessionPool {
	return &SessionPool{sessions: map[sessionKey]*satSession{}}
}

// satSession is one persistent translation + serial solver, seeded by
// the first scenario of its base family.
type satSession struct {
	mu   sync.Mutex
	inc  *relalg.Incremental
	seed *mcamodel.Encoding
}

func (p *SessionPool) get(key sessionKey) *satSession {
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
	case e.Workers == 0:
		return "sat"
	case e.Workers < 0:
		return "sat-portfolio"
	default:
		return fmt.Sprintf("sat-portfolio(%d)", e.Workers)
	}
}

// Verify decides the scenario's relational assertion within bounds. An
// UNSAT answer verifies the assertion for every instance in scope; a
// SAT answer is a counterexample instance; Unknown (budget or
// cancellation) is inconclusive.
func (e SAT) Verify(ctx context.Context, s Scenario) Result {
	start := time.Now()
	if err := Applicable(e, &s); err != nil {
		return errorResult(&s, e.Name(), err)
	}
	if e.Sessions != nil && e.Workers == 0 {
		return e.verifyIncremental(ctx, s, start)
	}
	// The translation comes from the process's memo; the search runs on
	// a copy of it, so TranslateTime is the lookup (a translation on a
	// miss) plus the copy.
	prep := time.Now()
	t := satTranslations.translation(s.Model)
	lookup := time.Since(prep)
	r := t.Solve(s.Solver, e.Workers, cancelHook(ctx))
	r.Stats.TranslateTime += lookup
	return e.satResult(ctx, &s, r, start)
}

// verifyIncremental routes the scenario through the pool's persistent
// session for its base family: the first scenario seeds the session
// (translating bounds and axioms once), later ones only translate their
// assertion into the shared circuit and solve under its activation
// literal, inheriting every learnt clause of the sweep so far.
func (e SAT) verifyIncremental(ctx context.Context, s Scenario, start time.Time) Result {
	m := s.Model
	sess := e.Sessions.get(sessionKey{m.Name, m.Scope, s.Solver})
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.inc == nil {
		sess.inc = relalg.NewIncremental(m.Bounds, m.Background, s.Solver)
		sess.seed = m
	}
	// Rebuild the variant's assertion over the SEED model's relations:
	// this scenario's own formula points at different relation values
	// (each decode mints fresh ones), which the seed's translator would
	// treat as brand-new relations.
	variant, err := sess.seed.WithAssertState(m.AssertState)
	if err != nil {
		return errorResult(&s, e.Name(), err)
	}
	sess.inc.SetCancel(cancelHook(ctx))
	r := sess.inc.Solve(relalg.Not(variant.Consensus))
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
