package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/netsim"
	"repro/internal/sat"
	"repro/internal/trace"
)

// Scenario is one verification scenario: everything an Engine needs to
// check the MCA consensus property one way. It is data — agents are
// described by configs and rebuilt fresh for every Verify call, and a
// scenario that passes Validate encodes (EncodeScenario) — so a
// Scenario can be copied, varied, stored, and scheduled thousands of
// times.
type Scenario struct {
	// Name labels the scenario in results and sweep reports.
	Name string

	// AgentSpecs describes the protocol agents; each Verify builds fresh
	// agents from the specs.
	AgentSpecs []mca.Config
	// Graph is the agent network topology.
	Graph *graph.Graph

	// Explore carries the property bounds and channel semantics for the
	// dynamic checkers (message budget, state budget, queue depth,
	// duplicate-delivery fault injection). Its Cancel field is owned by
	// the engine layer and overwritten from the context.
	Explore explore.Options

	// Faults is the network fault model. The Simulation engine honours
	// all of it; the Explicit engine accepts only a permanent partition
	// (checked exactly on the partition-masked graph) and rejects
	// probabilistic or timed faults, which have no exhaustive semantics.
	Faults netsim.Faults

	// Model, when non-nil, is the bounded relational model of the MCA
	// protocol the SAT backends check: the assertion is its Consensus
	// under its Background facts. Scenarios without it are dynamic-only.
	Model *mcamodel.Encoding
	// Solver tunes the underlying SAT solver for the SAT backends.
	Solver sat.Options
}

// agents materializes fresh protocol agents for one Verify call, of a
// scenario Applicable has let through: every spec constructs.
func (s *Scenario) agents() []*mca.Agent {
	out := make([]*mca.Agent, len(s.AgentSpecs))
	for i, cfg := range s.AgentSpecs {
		out[i] = mca.MustNewAgent(cfg)
	}
	return out
}

// Status classifies a Result.
type Status int

// Result statuses.
const (
	// StatusHolds: the property was verified (exhaustive engines) or
	// held on every simulated execution (Simulation engine).
	StatusHolds Status = iota
	// StatusViolated: a counterexample was found.
	StatusViolated
	// StatusInconclusive: the search was cancelled or exhausted its
	// budget before an answer.
	StatusInconclusive
	// StatusError: the scenario could not be run by this engine.
	StatusError
)

// statusTokens is the result-document vocabulary of Status, indexed by
// status; String prints the same spelling.
var statusTokens = [...]string{
	StatusHolds:        "holds",
	StatusViolated:     "violated",
	StatusInconclusive: "inconclusive",
	StatusError:        "error",
}

// String names the status.
func (s Status) String() string {
	if s < 0 || int(s) >= len(statusTokens) {
		return fmt.Sprintf("status(%d)", int(s))
	}
	return statusTokens[s]
}

// MarshalText renders the status as its document token.
func (s Status) MarshalText() ([]byte, error) {
	if s < 0 || int(s) >= len(statusTokens) {
		return nil, fmt.Errorf("engine: unencodable status %d", int(s))
	}
	return []byte(statusTokens[s]), nil
}

// UnmarshalText parses a document token.
func (s *Status) UnmarshalText(text []byte) error {
	for v, tok := range statusTokens {
		if tok == string(text) {
			*s = Status(v)
			return nil
		}
	}
	return fmt.Errorf("engine: unknown status %q", text)
}

// Stats aggregates the per-engine effort counters into one shape; its
// times stay in the process that measured them (EncodeResult omits them).
type Stats struct {
	// Explicit-state: states visited, deepest path, full exploration;
	// Capped marks runs stopped by the MaxStates budget (Exhausted is
	// false both then and on cancellation — Capped tells them apart).
	States    int
	MaxDepth  int
	Exhausted bool
	Capped    bool
	// MissProb is the lossy seen-set's upper bound on the probability
	// that any single membership query wrongly answered "seen" (0 for
	// the exact store): the quantified soundness cost of running the
	// explicit engine in bitstate or hash-compaction mode.
	MissProb float64
	// SAT: translation sizes and times.
	PrimaryVars   int
	AuxVars       int
	Clauses       int
	TranslateTime time.Duration
	SolveTime     time.Duration
	// SAT search effort (per solve, even on incremental sessions whose
	// solver accumulates across variants).
	Conflicts     int64
	Propagations  int64
	LearntClauses int64
	// Simulation: executions run, how many converged, message effort.
	Runs       int
	Converged  int
	Deliveries int
	Dropped    int
	// Duplicated counts deliveries the duplication fault model forked
	// into an extra in-flight copy across all simulation runs.
	Duplicated int
	// Wall is the end-to-end duration of the Verify call.
	Wall time.Duration
}

// Result is the unified verdict every engine returns.
type Result struct {
	// Index is the scenario's position in a Runner batch; -1 for a
	// direct Verify call.
	Index int
	// Scenario and Engine name the work and the adapter that did it.
	Scenario string
	Engine   string
	// Status is the unified verdict.
	Status Status
	// Violation classifies dynamic counterexamples (Explicit engine).
	Violation explore.ViolationKind
	// Trace is the counterexample trace, when one exists.
	Trace *trace.Recorder
	// SATStatus is the raw SAT answer of the SAT engine: StatusSat
	// means a counterexample instance to the assertion exists.
	SATStatus sat.Status
	// Cached marks a result served from a Runner's result cache instead
	// of a fresh Verify call.
	Cached bool
	// Stats are the effort counters.
	Stats Stats
	// Err reports scenario/engine mismatches and cancellation causes.
	Err error

	// line carries the encoding of a cached verdict; EncodeResult splices
	// a hit's name, index and cached flag into it (codec.go).
	line *encodedLine
}

// errorResult builds a StatusError result.
func errorResult(s *Scenario, engineName string, err error) Result {
	return Result{Index: -1, Scenario: s.Name, Engine: engineName, Status: StatusError, Err: err}
}

// Engine is one way of checking a Scenario. Implementations are small
// configuration values, safe to copy and share across goroutines; all
// per-run state lives inside Verify.
type Engine interface {
	// Name identifies the adapter and its configuration.
	Name() string
	// Verify checks the scenario, honouring ctx cancellation and
	// deadlines; a cancelled run reports StatusInconclusive with the
	// context's error.
	Verify(ctx context.Context, s Scenario) Result
}

// cancelHook adapts a context to the cooperative Cancel callbacks the
// solver layers poll. A nil-safe fast path keeps fault-free hot loops
// free of interface calls when the context cannot be cancelled.
func cancelHook(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// combineCancel merges a caller-provided cancellation hook (e.g. a
// Scenario's Explore.Cancel) with the context's, so neither silently
// disables the other.
func combineCancel(a, b func() bool) func() bool {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return func() bool { return a() || b() }
}

// Auto picks the natural engine for each scenario: SAT when a
// relational model is attached, Simulation when the fault model has a
// probabilistic or timed component, Explicit otherwise.
type Auto struct {
	// Workers sizes the SAT portfolio (0 is the serial solver). An
	// explicit check runs on the serial DFS at any value; MaxWorkers
	// bounds it for every engine.
	Workers int
}

// Name identifies the adapter.
func (a Auto) Name() string { return "auto" }

// EngineFor returns the engine Auto would use for the scenario: it
// routes by what unmet says of the candidates.
func (a Auto) EngineFor(s Scenario) Engine {
	exhaustive := Explicit{Workers: a.Workers}.addressed()
	switch {
	case unmet(SAT{}, &s) == nil:
		return SAT{Workers: a.Workers}
	case unmet(exhaustive, &s) == errSampledFaults:
		return Simulation{}
	default:
		return exhaustive
	}
}

// Verify dispatches to the selected engine.
func (a Auto) Verify(ctx context.Context, s Scenario) Result {
	return a.EngineFor(s).Verify(ctx, s)
}

// resolveEngine strips the layers that only decide where or how another
// engine runs — Unwrap() Engine wrappers (the fleet's remote executor),
// nil, Auto — down to the adapter that verifies s.
func resolveEngine(e Engine, s *Scenario) Engine {
	for {
		w, ok := e.(interface{ Unwrap() Engine })
		if !ok {
			break
		}
		e = w.Unwrap()
	}
	if e == nil {
		e = Auto{}
	}
	if auto, ok := e.(Auto); ok {
		e = auto.EngineFor(*s)
	}
	return e
}

// What an adapter can require of a scenario; Applicable prefixes the
// scenario's name.
var (
	errNoGraph       = errors.New("has no agent graph")
	errSampledFaults = errors.New("has probabilistic or timed faults; exhaustive checking supports only permanent partitions (use the Simulation engine)")
	errNoModel       = errors.New("has no relational model for the SAT backend")
)

// unmet returns the requirement of adapter e that scenario s does not
// meet, or nil. It is the one statement of which engine runs which
// scenario; engines it does not know require nothing.
func unmet(e Engine, s *Scenario) error {
	switch e := e.(type) {
	case Explicit:
		switch { // the fault model first: Auto routes on it, graph or no graph
		case !s.Faults.None() && !s.Faults.StaticPartitionOnly():
			return errSampledFaults
		case s.Graph == nil:
			return errNoGraph
		case e.Workers > MaxWorkers:
			return fmt.Errorf("cannot run with %d workers (at most %d)", e.Workers, MaxWorkers)
		}
	case Simulation:
		switch {
		case s.Graph == nil:
			return errNoGraph
		case e.BudgetFactor > MaxBudgetFactor:
			return fmt.Errorf("cannot run with simulation budget factor %d (at most %d)", e.BudgetFactor, MaxBudgetFactor)
		}
	case SAT:
		switch {
		case s.Model == nil:
			return errNoModel
		case e.Workers > MaxWorkers:
			return fmt.Errorf("cannot run with %d workers (at most %d)", e.Workers, MaxWorkers)
		}
	}
	return nil
}

// Applicable reports whether engine e can run scenario s, and if not
// why: the scenario is not well formed (Validate), or the adapter e
// resolves to — through Unwrap and Auto — requires something it lacks.
// Every adapter's Verify starts here and keeps no check of its own.
func Applicable(e Engine, s *Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := unmet(resolveEngine(e, s), s); err != nil {
		return fmt.Errorf("engine: scenario %q %w", s.Name, err)
	}
	return nil
}
