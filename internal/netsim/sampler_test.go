package netsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
)

// samplerFaults are the fault models TestSamplerStreamIsPinned samples,
// one per knob that draws from or reshapes the run's stream.
var samplerFaults = []struct {
	name   string
	faults Faults
}{
	{"none", Faults{}},
	{"drop", Faults{Drop: 0.5}},
	{"delay", Faults{Delay: 2}},
	{"duplicate", Faults{Duplicate: 0.3}},
	{"reorder", Faults{Reorder: 2}},
	{"heal", Faults{Partitions: [][]int{{0}, {1, 2}}, HealAfter: 4}},
}

// samplerPins are the exact outcomes of seeds 0-3, one line per graph
// and fault model: deliveries/dropped/duplicated, then "+" for a
// converged run and "-" for one that did not. They move only when the
// generator, its seeding, the order coins are drawn in, or the delivery
// rules change — and then every cached Simulation verdict is a new
// sample, so engine.CacheEpoch must be bumped with them.
var samplerPins = map[string]string{
	"line3/none":          "11/0/0+ 12/0/0+ 11/0/0+ 11/0/0+",
	"line3/drop":          "7/4/0+ 8/4/0+ 3/4/0- 1/4/0-",
	"line3/delay":         "11/0/0+ 12/0/0+ 11/0/0+ 11/0/0+",
	"line3/duplicate":     "14/0/3+ 14/0/2+ 14/0/3+ 18/0/6+",
	"line3/reorder":       "11/0/0+ 14/0/0+ 11/0/0+ 11/0/0+",
	"line3/heal":          "12/0/0+ 12/0/0+ 12/0/0+ 12/0/0+",
	"complete3/none":      "18/0/0+ 21/0/0+ 21/0/0+ 18/0/0+",
	"complete3/drop":      "8/8/0- 10/8/0+ 6/9/0- 6/7/0-",
	"complete3/delay":     "19/0/0+ 21/0/0+ 22/0/0+ 18/0/0+",
	"complete3/duplicate": "36/0/13+ 31/0/7+ 26/0/5+ 37/0/13+",
	"complete3/reorder":   "19/0/0+ 22/0/0+ 22/0/0+ 21/0/0+",
	"complete3/heal":      "20/0/0+ 21/0/0+ 19/0/0+ 20/0/0+",
}

func formatOutcome(out AsyncOutcome) string {
	conv := "-"
	if out.Converged {
		conv = "+"
	}
	return fmt.Sprintf("%d/%d/%d%s", out.Deliveries, out.Dropped, out.Duplicated, conv)
}

// TestSamplerStreamIsPinned pins the sampled executions themselves, not
// just their determinism: a different generator or seeding that keeps
// every run reproducible still fails here. It also pins that a
// Simulator reused across seeds, in any order, runs exactly what a
// fresh Simulator per seed runs, and that so does one agent set
// restored to its initial SaveState before each run — the reuse
// engine.Simulation makes of a cell's agents.
func TestSamplerStreamIsPinned(t *testing.T) {
	const maxDeliveries = 300
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"line3", graph.Line(3)}, {"complete3", graph.Complete(3)}}
	for _, gc := range graphs {
		for _, fc := range samplerFaults {
			key := gc.name + "/" + fc.name
			var fresh [4]AsyncOutcome
			got := make([]string, len(fresh))
			for seed := range fresh {
				fresh[seed] = NewSimulator(gc.g, fc.faults).Run(faultAgents(t, 3, 2), int64(seed), maxDeliveries)
				got[seed] = formatOutcome(fresh[seed])
			}
			if line := strings.Join(got, " "); line != samplerPins[key] {
				t.Errorf("%s: seeds 0-3 ran %q, pinned %q", key, line, samplerPins[key])
			}
			sim := NewSimulator(gc.g, fc.faults)
			for _, seed := range []int{3, 0, 2, 1, 3} {
				if out := sim.Run(faultAgents(t, 3, 2), int64(seed), maxDeliveries); out != fresh[seed] {
					t.Errorf("%s seed %d: reused Simulator ran %+v, fresh run %+v", key, seed, out, fresh[seed])
				}
			}
			agents := faultAgents(t, 3, 2)
			initial := make([]mca.AgentState, len(agents))
			for i, a := range agents {
				initial[i] = a.SaveState()
			}
			for _, seed := range []int{3, 0, 2, 1, 3} {
				for i, a := range agents {
					a.RestoreState(initial[i])
				}
				if out := sim.Run(agents, int64(seed), maxDeliveries); out != fresh[seed] {
					t.Errorf("%s seed %d: restored agents ran %+v, fresh agents %+v", key, seed, out, fresh[seed])
				}
			}
		}
	}
}
