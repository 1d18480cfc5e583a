package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/explore"
)

// Explicit is the explicit-state backend adapter: the exhaustive
// bounded model checker over all message interleavings, run either as
// the serial DFS or as the sharded parallel frontier.
type Explicit struct {
	// Workers selects the backend: 0 runs the serial DFS; any other
	// value runs the sharded parallel frontier with that many shards
	// (negative means one per CPU). Workers=1 is the one-shard frontier,
	// not the DFS: the two algorithms are kept distinct because their
	// val-bound verdicts can differ on order-dependent prunes.
	Workers int
}

// Name identifies the adapter.
func (e Explicit) Name() string {
	if e.serial() {
		return "explicit"
	}
	if e.Workers < 0 {
		return "explicit-parallel"
	}
	return fmt.Sprintf("explicit-parallel(%d)", e.Workers)
}

func (e Explicit) serial() bool { return e.Workers == 0 }

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
// resumed result is identical to the same verification executed
// uninterrupted, at any worker count. Requires the parallel frontier:
// the serial DFS stops mid-path and has no checkpointable cut.
func (e Explicit) VerifyResumable(ctx context.Context, s Scenario, prior *Checkpoint) (Result, *Checkpoint) {
	return e.verify(ctx, s, prior, true)
}

func (e Explicit) verify(ctx context.Context, s Scenario, prior *Checkpoint, capture bool) (Result, *Checkpoint) {
	start := time.Now()
	if err := Applicable(e, &s); err != nil {
		return errorResult(&s, e.Name(), err), nil
	}
	if capture && e.serial() {
		return errorResult(&s, e.Name(), fmt.Errorf(
			"engine: scenario %q: checkpoint/resume requires the parallel frontier (workers != 0); the serial DFS stops mid-path and has no checkpointable cut", s.Name)), nil
	}
	g := s.Faults.ApplyPartitions(s.Graph)
	opts := s.Explore
	opts.Cancel = combineCancel(opts.Cancel, cancelHook(ctx))

	var rs *explore.RunState
	var err error
	if prior != nil {
		if err = prior.Matches(s); err == nil {
			rs, err = explore.DecodeRunState(prior.State)
		}
		if err != nil {
			return errorResult(&s, e.Name(), err), nil
		}
	}

	var v explore.Verdict
	var next *explore.RunState
	if e.serial() {
		v = explore.Check(s.agents(), g, opts)
	} else {
		v, next, err = explore.CheckParallelFrom(s.agents(), g, opts, e.Workers, rs, capture)
		if err != nil {
			return errorResult(&s, e.Name(), err), nil
		}
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
		cp = &Checkpoint{Scenario: cs, Workers: e.Workers, State: explore.EncodeRunState(next)}
	}
	return res, cp
}
