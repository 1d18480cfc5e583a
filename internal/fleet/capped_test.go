package fleet_test

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/mca"
)

// cappedScenarios mixes budget-capped runs (MaxStates far below the
// state space) with runs that conclude, so the summary distinguishes
// "inconclusive because capped" from plain inconclusive.
func cappedScenarios() []engine.Scenario {
	pol := mca.Policy{Target: 2, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	specs := []mca.Config{
		{ID: 0, Items: 2, Base: []int64{10, 0}, Policy: pol},
		{ID: 1, Items: 2, Base: []int64{0, 20}, Policy: pol},
		{ID: 2, Items: 2, Base: []int64{5, 5}, Policy: pol},
	}
	return []engine.Scenario{
		{Name: "capped-a", AgentSpecs: specs, Graph: graph.Line(3), Explore: explore.Options{MaxStates: 50}},
		{Name: "completes", AgentSpecs: specs, Graph: graph.Line(3), Explore: explore.Options{MaxStates: 30000}},
		{Name: "capped-b", AgentSpecs: specs, Graph: graph.Line(3), Explore: explore.Options{MaxStates: 100}},
	}
}

// The Capped propagation pin: a work unit's result keeps Stats.Capped
// across the worker HTTP round trip, and the coordinator's summary
// counts capped runs exactly as the single-process Runner does —
// byte-identical summary documents.
func TestFleetPropagatesCapped(t *testing.T) {
	scenarios := cappedScenarios()
	eng := engine.Explicit{Workers: 2}

	baseResults, baseSum := engine.NewRunner(engine.RunnerOptions{Workers: 2, Engine: eng}).
		Run(context.Background(), scenarios)
	if baseSum.Capped != 2 {
		t.Fatalf("baseline summary counts %d capped runs, want 2: %+v", baseSum.Capped, baseSum)
	}

	urls := startWorkers(t, 2, func(int) *fleet.Worker {
		return fleet.NewWorker(fleet.WorkerOptions{Slots: 2})
	})
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	results, sum := coord.Run(context.Background(), eng, scenarios)

	if sum.Capped != 2 {
		t.Fatalf("fleet summary counts %d capped runs, want 2: %+v", sum.Capped, sum)
	}
	if got, want := encodeSummary(t, sum), encodeSummary(t, baseSum); got != want {
		t.Fatalf("fleet summary diverged from runner:\n%s\nvs\n%s", got, want)
	}
	for i := range results {
		if results[i].Stats.Capped != baseResults[i].Stats.Capped {
			t.Fatalf("scenario %q: fleet capped=%v, runner capped=%v",
				scenarios[i].Name, results[i].Stats.Capped, baseResults[i].Stats.Capped)
		}
		if got, want := encodeResult(t, results[i]), encodeResult(t, baseResults[i]); got != want {
			t.Fatalf("scenario %q result diverged:\n%s\nvs\n%s", scenarios[i].Name, got, want)
		}
	}
}
