package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/netsim"
)

// malformedDoc is one row of testdata/malformed.json: the sample
// scenario examples/scenarios/line3.json with Old replaced by New, which
// breaks the well-formedness rule whose error contains Rule. The table
// is data so that every door a document can come through — this
// package's decoders, cmd/mcaserved's endpoints, mcacheck -scenario —
// is tested against the same rows.
type malformedDoc struct {
	Name, Old, New, Rule string
}

// malformedDocs loads the table, with each row's edit applied.
func malformedDocs(t testing.TB) (valid string, rows map[string]malformedDoc) {
	t.Helper()
	sample, err := os.ReadFile("../../examples/scenarios/line3.json")
	if err != nil {
		t.Fatal(err)
	}
	table, err := os.ReadFile("testdata/malformed.json")
	if err != nil {
		t.Fatal(err)
	}
	var list []malformedDoc
	if err := json.Unmarshal(table, &list); err != nil {
		t.Fatal(err)
	}
	rows = map[string]malformedDoc{}
	for _, row := range list {
		if !strings.Contains(string(sample), row.Old) {
			t.Fatalf("%s: line3.json has no %q to edit", row.Name, row.Old)
		}
		row.New = strings.Replace(string(sample), row.Old, row.New, 1)
		rows[row.Name] = row
	}
	return string(sample), rows
}

// TestMalformedScenariosAreDecodeErrors: each document is an error from
// DecodeScenario naming the rule, and as a sweep's cells an error from
// DecodeSweep naming the first cell. On the parent every one decoded:
// graph-nodes-4 then "verified" on a graph with a node no agent sits on,
// the next five panicked inside an engine — on a shard goroutine at
// workers=2, ending the process — the next two made the exact engine
// answer violated (bound-exceeded) at states=1, and the four fault rows
// carried tick counts the simulator's clock arithmetic overflows.
func TestMalformedScenariosAreDecodeErrors(t *testing.T) {
	valid, rows := malformedDocs(t)
	if _, err := DecodeScenario([]byte(valid)); err != nil {
		t.Fatalf("line3.json: %v", err)
	}
	for name, row := range rows {
		t.Run(name, func(t *testing.T) {
			_, err := DecodeScenario([]byte(row.New))
			if err == nil || !strings.Contains(err.Error(), row.Rule) {
				t.Fatalf("DecodeScenario error = %v, want the rule %q", err, row.Rule)
			}
			base := strings.Replace(row.New, `"version": 1,`, "", 1)
			sweep := fmt.Sprintf(`{"version":1,"name":"sw","base":%s,"axes":[{"axis":"x","variants":[{"name":"first","scenario":{}},{"name":"second","scenario":{}}]}]}`, base)
			_, err = DecodeSweep([]byte(sweep))
			if err == nil || !strings.Contains(err.Error(), `cell "line3-submodular/first"`) || !strings.Contains(err.Error(), row.Rule) {
				t.Fatalf("DecodeSweep error = %v, want the first cell and the rule %q", err, row.Rule)
			}
		})
	}
}

// TestFaultTicksAtTheCeilingAreWellFormed: the fault rows of
// malformed.json sit past MaxFaultTicks; the ceiling itself is allowed.
func TestFaultTicksAtTheCeilingAreWellFormed(t *testing.T) {
	valid, _ := malformedDocs(t)
	s, err := DecodeScenario([]byte(valid))
	if err != nil {
		t.Fatal(err)
	}
	s.Faults = netsim.Faults{
		Delay: MaxFaultTicks, Reorder: MaxFaultTicks,
		DelayEdge:  map[netsim.Edge]int{{From: 0, To: 1}: MaxFaultTicks},
		Partitions: [][]int{{0}, {1, 2}}, HealAfter: MaxFaultTicks,
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("faults at the ceiling: %v", err)
	}
	s.Faults.Delay++
	if err := s.Validate(); err == nil {
		t.Fatal("delay one past the ceiling validated")
	}
}

// TestMalformedScenarioBuiltInGoMeetsTheSameCheck: a scenario that never
// went through a decoder is stopped at every engine's door by the same
// Validate, as an error result — not a panic inside the engine, and not
// an invented violation.
func TestMalformedScenarioBuiltInGoMeetsTheSameCheck(t *testing.T) {
	valid, _ := malformedDocs(t)
	s, err := DecodeScenario([]byte(valid))
	if err != nil {
		t.Fatal(err)
	}
	wide, overflow, nanDrop := s, s, s
	wide.Graph = graph.Line(4)
	overflow.Explore.Bound, overflow.Explore.HardLimitFactor = 1<<62, 4
	// No document carries a NaN; the simulator would silently never drop.
	nanDrop.Faults.Drop = math.NaN()
	for _, eng := range []Engine{Explicit{}, Explicit{Workers: 2}, Simulation{Runs: 2}, Auto{Workers: 2}} {
		for rule, bad := range map[string]Scenario{"3 agents on a 4-node graph": wide, "explore bound": overflow, "drop probability NaN": nanDrop} {
			res := eng.Verify(context.Background(), bad)
			if res.Status != StatusError || res.Err == nil || !strings.Contains(res.Err.Error(), rule) {
				t.Errorf("%s: %v (%v), want an error result naming %q", eng.Name(), res.Status, res.Err, rule)
			}
			if err := Applicable(eng, &bad); err == nil || !strings.Contains(err.Error(), rule) {
				t.Errorf("Applicable(%s) = %v", eng.Name(), err)
			}
		}
		if res := eng.Verify(context.Background(), s); res.Status != StatusHolds {
			t.Errorf("%s on line3.json: %v (%v)", eng.Name(), res.Status, res.Err)
		}
	}
	if err := Applicable(Simulation{BudgetFactor: MaxBudgetFactor + 1}, &s); err == nil || !strings.Contains(err.Error(), "budget factor") {
		t.Errorf("oversized simulation budget factor: %v", err)
	}
}
