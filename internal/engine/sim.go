package engine

import (
	"context"
	"time"

	"repro/internal/mca"
	"repro/internal/netsim"
)

// Simulation is the randomized-execution adapter: it runs a batch of
// seeded asynchronous executions under the scenario's network fault
// model (message drops, delivery delays, partitions) and reports
// whether every execution converged. Unlike the exhaustive engines its
// Holds verdict is empirical — it covers the sampled schedules, not all
// of them — which is exactly the trade that makes adversarial network
// sweeps tractable at production scale.
type Simulation struct {
	// Runs is the number of seeded executions (default 16).
	Runs int
	// Seed offsets the per-run seeds, so distinct Simulation values
	// sample distinct schedule sets. Run i uses Seed + i: its delivery
	// order and fault coins come from a PCG (math/rand/v2) seeded with
	// (uint64(Seed+i), 0x9e3779b97f4a7c15), as netsim.Simulator.Run
	// describes.
	Seed int64
	// MaxDeliveries caps each run's delivery ticks; 0 derives
	// BudgetFactor × the D·|J| consensus bound from the scenario graph.
	MaxDeliveries int
	// BudgetFactor scales the derived delivery budget (default 8).
	// Raise it when a non-convergence verdict must not be a budget
	// artifact — the differential oracle runs with a generous factor so
	// slow-but-convergent scenarios still count as converged. Ignored
	// when MaxDeliveries is set explicitly.
	BudgetFactor int
}

// Name identifies the adapter.
func (e Simulation) Name() string { return "simulation" }

func (e Simulation) withDefaults() Simulation {
	if e.Runs <= 0 {
		e.Runs = 16
	}
	if e.BudgetFactor <= 0 {
		e.BudgetFactor = 8
	}
	if e.MaxDeliveries > 0 {
		// An explicit budget supersedes the factor; normalizing it keeps
		// equivalent configurations on one cache address.
		e.BudgetFactor = 0
	}
	return e
}

// Verify samples seeded executions under the fault model. The verdict
// is deterministic in (Scenario, Simulation): every run's schedule and
// fault coin flips derive from its seed. One netsim.Simulator and one
// agent set serve all the runs of a call: the agents are built once,
// their initial state saved, and restored in place before each run, so
// a run costs its deliveries, not new agents, a network or a generator.
func (e Simulation) Verify(ctx context.Context, s Scenario) Result {
	start := time.Now()
	e = e.withDefaults()
	if err := Applicable(e, &s); err != nil {
		return errorResult(&s, e.Name(), err)
	}
	maxDeliveries := e.MaxDeliveries
	if maxDeliveries <= 0 {
		// Derived once per scenario: MessageBound walks the graph
		// diameter, which is invariant across the runs.
		items := 0
		if len(s.AgentSpecs) > 0 {
			items = s.AgentSpecs[0].Items
		}
		maxDeliveries = e.BudgetFactor * (mca.MessageBound(s.Graph, items) + 1)
	}
	res := Result{Index: -1, Scenario: s.Name, Engine: e.Name(), Status: StatusHolds}
	sim := netsim.NewSimulator(s.Graph, s.Faults)
	agents := s.agents()
	initial := make([]mca.AgentState, len(agents))
	for i, a := range agents {
		a.SaveStateInto(&initial[i])
	}
	for i := 0; i < e.Runs; i++ {
		if ctx != nil && ctx.Err() != nil {
			res.Status = StatusInconclusive
			res.Err = ctx.Err()
			break
		}
		for k, a := range agents {
			a.RestoreState(initial[k])
		}
		out := sim.Run(agents, e.Seed+int64(i), maxDeliveries)
		res.Stats.Runs++
		res.Stats.Deliveries += out.Deliveries
		res.Stats.Dropped += out.Dropped
		res.Stats.Duplicated += out.Duplicated
		if out.Converged {
			res.Stats.Converged++
		} else {
			res.Status = StatusViolated
		}
	}
	res.Stats.Wall = time.Since(start)
	return res
}
