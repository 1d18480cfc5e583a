package portfolio

import "repro/internal/sat"

// Session is a persistent portfolio: diversified solver members loaded
// with one base formula that race repeated SolveAssuming calls. Unlike
// Solve, which builds fresh members per call, a session's members keep
// their learnt clauses, variable activities, and saved phases across
// calls — the incremental backend for sweeping many variants (each a
// set of assumption literals, typically activation gates for variant
// constraints) over one translation. Sessions are not safe for
// concurrent use; serialize calls externally.
type Session struct {
	opts    Options
	members []*sat.Solver
}

// NewSession loads the base formula into Workers diversified members.
func NewSession(f *sat.CNF, opts Options) *Session {
	opts = opts.withDefaults()
	se := &Session{opts: opts}
	for _, cfg := range DiversifiedOptions(opts.Base, opts.Workers) {
		s := sat.NewSolverWithOptions(cfg)
		// ErrAddAfterUnsat just means the member already knows the base
		// is unsat; the next solve reports that.
		_ = f.LoadInto(s)
		se.members = append(se.members, s)
	}
	return se
}

// Extend grows every member to numVars variables and adds the given
// clauses — the increment sat.Solver.ExportSince produces when more of
// the formula was translated since the last call. Learnt clauses are
// kept: added clauses only constrain the formula further, so everything
// previously learnt remains implied.
func (se *Session) Extend(numVars int, clauses [][]sat.Lit) {
	for _, s := range se.members {
		for s.NumVars() < numVars {
			s.NewVar()
		}
		for _, c := range clauses {
			if err := s.AddClause(c...); err != nil {
				break // member already unsat at root
			}
		}
	}
}

// SolveAssuming races every member on the base formula under the given
// assumptions; the first definite answer wins and cancels the rest.
// Losing members return to an idle, reusable state with their clause
// databases intact.
func (se *Session) SolveAssuming(assumptions ...sat.Lit) Result {
	return race(len(se.members), se.opts.Cancel, func(member int, cancel func() bool) (sat.Status, *sat.Solver) {
		s := se.members[member]
		s.SetCancel(cancel)
		return s.SolveAssuming(assumptions...), s
	})
}
