package mcamodel

import (
	"fmt"
	"time"

	"repro/internal/relalg"
	"repro/internal/sat"
)

// Measurement is one row of the abstraction-efficiency experiment (E5).
type Measurement struct {
	Encoding    string
	Scope       Scope
	PrimaryVars int
	AuxVars     int
	Clauses     int
	Translate   time.Duration
	Solve       time.Duration
	// CheckStatus is the solver's answer on a row that was solved
	// (RunSatisfiable: SAT means the facts admit an execution); a
	// translation-only row leaves it unknown. The consensus check itself
	// is engine.SAT's.
	CheckStatus sat.Status
}

// String renders a table row.
func (m Measurement) String() string {
	return fmt.Sprintf("%-9s %-22s vars=%6d (+%6d aux) clauses=%7d translate=%8s solve=%8s %s",
		m.Encoding, m.Scope, m.PrimaryVars, m.AuxVars, m.Clauses, m.Translate.Round(time.Millisecond),
		m.Solve.Round(time.Millisecond), m.CheckStatus)
}

// MeasureTranslation builds the CNF for "facts ∧ ¬consensus" without
// solving and reports translation sizes — the clause counts the paper
// compares between its two model versions.
func MeasureTranslation(e *Encoding) Measurement {
	st := relalg.TranslateOnly(e.Bounds, relalg.And(e.Background, relalg.Not(e.Consensus)))
	return Measurement{
		Encoding:    e.Name,
		Scope:       e.Scope,
		PrimaryVars: st.PrimaryVars,
		AuxVars:     st.AuxVars,
		Clauses:     st.Clauses,
		Translate:   st.TranslateTime,
	}
}

// RunSatisfiable checks that the background itself is satisfiable — a
// sanity run ("run {} for scope") validating that the model admits
// executions at all.
func RunSatisfiable(e *Encoding, opts sat.Options) (bool, Measurement) {
	res := relalg.Solve(&relalg.Problem{Bounds: e.Bounds, Formula: e.Background, SolverOptions: opts})
	m := Measurement{
		Encoding:    e.Name,
		Scope:       e.Scope,
		PrimaryVars: res.Stats.PrimaryVars,
		AuxVars:     res.Stats.AuxVars,
		Clauses:     res.Stats.Clauses,
		Translate:   res.Stats.TranslateTime,
		Solve:       res.Stats.SolveTime,
		CheckStatus: res.Status,
	}
	return res.Status == sat.StatusSat, m
}
