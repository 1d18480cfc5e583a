package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/explore"
)

// Explicit is the explicit-state backend adapter: the exhaustive
// bounded model checker over all message interleavings, run as the
// serial DFS.
type Explicit struct {
	// Workers has no effect: every explicit check runs on the serial
	// DFS, which is faster than the sharded frontier it once selected.
	// A value above MaxWorkers is still an error result, so requests
	// that name one keep their answer. The field goes with the frontier.
	Workers int
}

// Name identifies the adapter.
func (e Explicit) Name() string { return "explicit" }

// addressed is the configuration a content address and a work unit
// carry: Workers dropped, since it changes nothing a run does — except
// past MaxWorkers, where it is what makes the run an error result.
func (e Explicit) addressed() Explicit {
	if e.Workers > MaxWorkers {
		return e
	}
	return Explicit{}
}

// Verify exhaustively checks the consensus property for the scenario.
// Fault models: a permanent partition is checked exactly (on the
// partition-masked graph, where a disconnected protocol genuinely
// cannot agree); probabilistic or timed faults are rejected — they have
// no exhaustive semantics and belong to the Simulation engine.
func (e Explicit) Verify(ctx context.Context, s Scenario) Result {
	res, _ := e.verify(ctx, s, nil, false)
	return res
}

// VerifyResumable is Verify with checkpoint/resume: a non-nil prior
// checkpoint (for the same scenario modulo display name and MaxStates
// budget — resume exists to raise the budget) continues the capped run
// instead of restarting it, and a run that stops on the MaxStates
// budget comes back with a fresh checkpoint (nil otherwise). The
// resumed result is byte-identical to the same verification executed
// uninterrupted. A lossy store cannot checkpoint (its seen-set keeps no
// keys): asking it to is an error result.
func (e Explicit) VerifyResumable(ctx context.Context, s Scenario, prior *Checkpoint) (Result, *Checkpoint) {
	return e.verify(ctx, s, prior, true)
}

func (e Explicit) verify(ctx context.Context, s Scenario, prior *Checkpoint, capture bool) (Result, *Checkpoint) {
	start := time.Now()
	if err := Applicable(e, &s); err != nil {
		return errorResult(&s, e.Name(), err), nil
	}
	g := s.Faults.ApplyPartitions(s.Graph)
	opts := s.Explore
	opts.Cancel = combineCancel(opts.Cancel, cancelHook(ctx))

	var from *explore.DFSState
	if prior != nil {
		err := prior.Matches(s)
		if err == nil {
			from, err = explore.DecodeDFSState(prior.State)
		}
		if err != nil {
			return errorResult(&s, e.Name(), err), nil
		}
	}
	v, next, err := explore.CheckFrom(s.agents(), g, opts, from, capture)
	if err != nil {
		return errorResult(&s, e.Name(), fmt.Errorf("engine: scenario %q: %w", s.Name, err)), nil
	}

	res := Result{
		Index:     -1,
		Scenario:  s.Name,
		Engine:    e.Name(),
		Violation: v.Violation,
		Trace:     v.Trace,
		Stats: Stats{
			States:    v.States,
			MaxDepth:  v.MaxDepth,
			Exhausted: v.Exhausted,
			Capped:    v.Capped,
			MissProb:  v.MissProb,
			Wall:      time.Since(start),
		},
	}
	switch {
	case v.OK:
		res.Status = StatusHolds
	case v.Violation != explore.ViolationNone:
		res.Status = StatusViolated
	default:
		res.Status = StatusInconclusive
		if ctx != nil && ctx.Err() != nil {
			res.Err = ctx.Err()
		}
	}
	var cp *Checkpoint
	if next != nil {
		cs := s
		cs.Explore.Cancel = nil
		cp = &Checkpoint{Scenario: cs, State: explore.EncodeDFSState(next)}
	}
	return res, cp
}
