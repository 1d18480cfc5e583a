package gen

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/mcamodel"
)

// The differential oracle runs one scenario through several engine
// adapters and decides whether their verdicts are mutually consistent.
// Engines fall into two comparability classes, because the adapters
// decide different questions:
//
//   - dynamic (Explicit, Simulation): does the asynchronous protocol
//     converge for this concrete agent configuration? Explicit is exact
//     within its bounds; Simulation samples schedules, so it may miss a
//     violation but must never report one on a scenario an exact engine
//     proved convergent.
//   - relational (SAT in any configuration): does the scenario's
//     bounded relational model admit a consensus counterexample within
//     its trace scope? Every encoding and solving strategy answers the
//     same question and must agree exactly; the oracle additionally
//     verifies the model's sibling encoding (naive vs optimized) and
//     requires the same answer.
//
// Inconclusive and error legs never count as agreement or disagreement:
// they carry no verdict to compare.

// LegClass is the comparability class of one oracle leg.
type LegClass int

// Leg classes.
const (
	// ClassDynamicExact: exhaustive convergence checkers (Explicit).
	ClassDynamicExact LegClass = iota
	// ClassDynamicSampling: seeded-schedule samplers (Simulation).
	ClassDynamicSampling
	// ClassRelational: bounded relational-model checkers (SAT).
	ClassRelational
)

// String names the class.
func (c LegClass) String() string {
	switch c {
	case ClassDynamicExact:
		return "dynamic-exact"
	case ClassDynamicSampling:
		return "dynamic-sampling"
	case ClassRelational:
		return "relational"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Leg is one engine's verdict on the scenario.
type Leg struct {
	// Engine labels the adapter configuration; relational legs append
	// the model encoding they checked (e.g. "sat@optimized").
	Engine string
	// Class is the leg's comparability class.
	Class LegClass
	// Result is the engine's unified verdict.
	Result engine.Result
}

// DiffResult is the oracle's verdict on one scenario.
type DiffResult struct {
	// Index is the scenario's position in a DiffSweep batch; -1 for a
	// direct DiffVerify call.
	Index int
	// Scenario is the scenario as verified.
	Scenario engine.Scenario
	// Legs holds every engine verdict, in the fixed engine order.
	Legs []Leg
	// Agree reports whether all legs are mutually consistent.
	Agree bool
	// Reasons explains each inconsistency (empty when Agree).
	Reasons []string
}

// DiffOptions configures the oracle.
type DiffOptions struct {
	// Engines are the adapters to compare; nil means DefaultEngines
	// (serial Explicit, generously budgeted Simulation, serial SAT —
	// add Explicit{Workers: n} yourself for the serial-vs-frontier
	// differential). Engines inapplicable to a scenario (SAT without a
	// model, Explicit under probabilistic faults) are skipped, not
	// failed.
	Engines []engine.Engine
	// Cache, when non-nil, serves and stores each leg through the
	// content-addressed result cache — the same VerifyCached protocol
	// the Runner and mcaserved use, so warm corpora re-verify instantly.
	Cache engine.ResultCache
	// Workers sizes DiffStream's scenario pool (0 = one per CPU).
	Workers int
}

// DefaultEngines returns the oracle's default panel: the serial
// explicit-state DFS, the seeded simulator (which must never contradict
// an exact "holds"; its delivery budget is generous so a slow converger
// is not mistaken for a diverger), and the serial SAT backend (compared
// against its sibling encoding). Add engine.Explicit{Workers: n} for
// the serial-vs-sharded-frontier differential — it is not in the
// default panel because the frontier pays a large constant factor on
// scenarios that exhaust their state budget inconclusively.
func DefaultEngines() []engine.Engine {
	return []engine.Engine{
		engine.Explicit{},
		engine.Simulation{BudgetFactor: 64},
		engine.SAT{},
	}
}

func (o DiffOptions) withDefaults() DiffOptions {
	if len(o.Engines) == 0 {
		o.Engines = DefaultEngines()
	}
	return o
}

// Applicable reports whether an engine can verify the scenario at all
// (engine.Applicable: SAT needs a relational model, the dynamic engines
// an agent graph, Explicit a fault model with exhaustive semantics).
// The oracle skips inapplicable engines instead of collecting their
// StatusError results.
func Applicable(e engine.Engine, s *engine.Scenario) bool {
	return engine.Applicable(e, s) == nil
}

// classOf assigns the comparability class, resolving Auto to its
// per-scenario delegate.
func classOf(e engine.Engine, s *engine.Scenario) LegClass {
	switch e := e.(type) {
	case engine.Explicit:
		return ClassDynamicExact
	case engine.Simulation:
		return ClassDynamicSampling
	case engine.SAT:
		return ClassRelational
	case engine.Auto:
		return classOf(e.EngineFor(*s), s)
	default:
		// Unknown adapters are treated as exact dynamic checkers; a
		// wrong guess surfaces as a flagged disagreement, never a
		// silent pass.
		return ClassDynamicExact
	}
}

// DiffVerify runs the scenario through every applicable engine and
// compares the verdicts. Each SAT engine also verifies the model's
// sibling encoding at the same scope (the paper's naive-vs-optimized
// agreement, E5, as an oracle). Legs are verified sequentially in the
// fixed engine order; ctx cancellation turns remaining legs
// inconclusive, which the comparison ignores.
func DiffVerify(ctx context.Context, s engine.Scenario, opts DiffOptions) DiffResult {
	opts = opts.withDefaults()
	out := DiffResult{Index: -1, Scenario: s}
	for _, e := range opts.Engines {
		if !Applicable(e, &s) {
			continue
		}
		class := classOf(e, &s)
		label := e.Name()
		if class == ClassRelational {
			label = relationalLabel(label, s.Model)
		}
		out.Legs = append(out.Legs, Leg{
			Engine: label,
			Class:  class,
			Result: engine.VerifyCached(ctx, e, s, opts.Cache),
		})
		if class == ClassRelational {
			if sib, err := siblingEncoding(s.Model); err == nil && sib != nil {
				s2 := s
				s2.Model = sib
				out.Legs = append(out.Legs, Leg{
					Engine: relationalLabel(e.Name(), sib),
					Class:  ClassRelational,
					Result: engine.VerifyCached(ctx, e, s2, opts.Cache),
				})
			}
		}
	}
	out.Agree, out.Reasons = compareLegs(out.Legs)
	return out
}

// relationalLabel tags a relational leg with the model it checked.
func relationalLabel(engineName string, m *mcamodel.Encoding) string {
	if m == nil {
		return engineName
	}
	return engineName + "@" + m.Name
}

// siblingEncoding builds the other mcamodel encoding at the same scope,
// or nil for a model the oracle does not know how to re-encode.
func siblingEncoding(m *mcamodel.Encoding) (*mcamodel.Encoding, error) {
	switch m.Name {
	case "naive":
		return mcamodel.BuildOptimized(m.Scope)
	case "optimized":
		return mcamodel.BuildNaive(m.Scope)
	default:
		return nil, nil
	}
}

// compareLegs applies the agreement rules.
func compareLegs(legs []Leg) (bool, []string) {
	conclusive := func(l Leg) bool {
		return l.Result.Status == engine.StatusHolds || l.Result.Status == engine.StatusViolated
	}
	var reasons []string
	// Relational class: strict equality across all conclusive legs.
	var relRef *Leg
	for i := range legs {
		l := &legs[i]
		if l.Class != ClassRelational || !conclusive(*l) {
			continue
		}
		if relRef == nil {
			relRef = l
			continue
		}
		if l.Result.Status != relRef.Result.Status {
			reasons = append(reasons, fmt.Sprintf("relational: %s=%v but %s=%v",
				relRef.Engine, relRef.Result.Status, l.Engine, l.Result.Status))
		}
	}
	// Dynamic class: exact engines agree exactly; a sampling engine may
	// report holds against an exact violated (a missed schedule) but a
	// sampling violated against an exact holds is a soundness bug in
	// one of them.
	var exactRef *Leg
	for i := range legs {
		l := &legs[i]
		if l.Class != ClassDynamicExact || !conclusive(*l) {
			continue
		}
		if exactRef == nil {
			exactRef = l
			continue
		}
		if l.Result.Status != exactRef.Result.Status {
			reasons = append(reasons, fmt.Sprintf("dynamic: %s=%v but %s=%v",
				exactRef.Engine, exactRef.Result.Status, l.Engine, l.Result.Status))
		}
	}
	if exactRef != nil && exactRef.Result.Status == engine.StatusHolds {
		for i := range legs {
			l := &legs[i]
			if l.Class == ClassDynamicSampling && l.Result.Status == engine.StatusViolated {
				reasons = append(reasons, fmt.Sprintf("dynamic: %s found a violation on a scenario %s proved convergent",
					l.Engine, exactRef.Engine))
			}
		}
	}
	return len(reasons) == 0, reasons
}

// DiffStream runs the oracle over a scenario set on a worker pool and
// sends each DiffResult as soon as it is ready, in completion order;
// Index maps results back to their scenarios. The channel closes when
// the batch is done. The consumer must drain the channel.
func DiffStream(ctx context.Context, scenarios []engine.Scenario, opts DiffOptions) <-chan DiffResult {
	opts = opts.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	return engine.Pool(opts.Workers, len(scenarios), func(i int) DiffResult {
		r := DiffVerify(ctx, scenarios[i], opts)
		r.Index = i
		return r
	})
}

// DiffSweep runs the oracle over a scenario set and returns the results
// indexed by scenario position plus an aggregate summary — identical at
// any worker count.
func DiffSweep(ctx context.Context, scenarios []engine.Scenario, opts DiffOptions) ([]DiffResult, DiffSummary) {
	results := make([]DiffResult, len(scenarios))
	for r := range DiffStream(ctx, scenarios, opts) {
		results[r.Index] = r
	}
	return results, SummarizeDiff(results)
}

// DiffSummary aggregates an oracle sweep.
type DiffSummary struct {
	// Scenarios is the batch size; Disagreements counts flagged ones.
	Scenarios     int
	Disagreements int
	// Legs counts engine verdicts produced, with the status breakdown.
	Legs         int
	Holds        int
	Violated     int
	Inconclusive int
	Errors       int
	// CacheHits counts legs served from the result cache.
	CacheHits int
}

// SummarizeDiff aggregates deterministically: the summary depends only
// on the multiset of results.
func SummarizeDiff(results []DiffResult) DiffSummary {
	sum := DiffSummary{Scenarios: len(results)}
	for _, r := range results {
		if !r.Agree {
			sum.Disagreements++
		}
		for _, l := range r.Legs {
			sum.Legs++
			if l.Result.Cached {
				sum.CacheHits++
			}
			switch l.Result.Status {
			case engine.StatusHolds:
				sum.Holds++
			case engine.StatusViolated:
				sum.Violated++
			case engine.StatusInconclusive:
				sum.Inconclusive++
			case engine.StatusError:
				sum.Errors++
			}
		}
	}
	return sum
}

// ParseEngines turns a comma-separated engine list — the -engines flag
// of cmd/mcafuzz — into adapters. Tokens: auto, explicit,
// explicit-parallel, simulation, sat, sat-portfolio. "simulation"
// carries the oracle's generous delivery budget (BudgetFactor 64), so a
// sampled non-convergence verdict in a fuzzing run is a real schedule,
// not a budget artifact.
func ParseEngines(spec string) ([]engine.Engine, error) {
	var out []engine.Engine
	for _, tok := range strings.Split(spec, ",") {
		switch strings.TrimSpace(tok) {
		case "":
			continue
		case "auto":
			out = append(out, engine.Auto{})
		case "explicit":
			out = append(out, engine.Explicit{})
		case "explicit-parallel":
			out = append(out, engine.Explicit{Workers: -1})
		case "simulation":
			out = append(out, engine.Simulation{BudgetFactor: 64})
		case "sat":
			out = append(out, engine.SAT{})
		case "sat-portfolio":
			out = append(out, engine.SAT{Workers: -1})
		default:
			return nil, fmt.Errorf("gen: unknown engine %q (want auto|explicit|explicit-parallel|simulation|sat|sat-portfolio)", strings.TrimSpace(tok))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gen: empty engine list %q", spec)
	}
	return out, nil
}
