package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mca"
)

const sweepDoc = `{
  "version": 1,
  "name": "grid",
  "base": {
    "name": "base",
    "agents": [
      {"id": 0, "items": 2, "base": [10, 15],
       "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}},
      {"id": 1, "items": 2, "base": [15, 10],
       "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}}
    ],
    "graph": {"nodes": 2, "edges": [{"u": 0, "v": 1}]},
    "explore": {"max_states": 500000, "queue_depth": 2}
  },
  "axes": [
    {"axis": "size", "variants": [
      {"name": "n2", "scenario": {}},
      {"name": "n3", "scenario": {
        "agents": [
          {"id": 0, "items": 2, "base": [10, 15],
           "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}},
          {"id": 1, "items": 2, "base": [15, 10],
           "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}},
          {"id": 2, "items": 2, "base": [12, 12],
           "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}}
        ],
        "graph": {"nodes": 3, "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}]}
      }}
    ]},
    {"axis": "faults", "variants": [
      {"name": "reliable", "scenario": {}},
      {"name": "drop20", "scenario": {"faults": {"drop": 0.2}}},
      {"name": "delay2", "scenario": {"faults": {"delay": 2}}}
    ]},
    {"axis": "mode", "variants": [
      {"name": "default", "scenario": {}},
      {"name": "dup", "scenario": {"explore": {"duplicate_deliveries": true}}}
    ]}
  ]
}`

func TestExpandSweepGrid(t *testing.T) {
	scenarios, err := ExpandSweep([]byte(sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2*3*2 {
		t.Fatalf("expanded %d scenarios, want 12", len(scenarios))
	}
	// Deterministic order: last axis fastest.
	wantNames := []string{
		"base/n2/reliable/default", "base/n2/reliable/dup",
		"base/n2/drop20/default", "base/n2/drop20/dup",
		"base/n2/delay2/default", "base/n2/delay2/dup",
		"base/n3/reliable/default", "base/n3/reliable/dup",
		"base/n3/drop20/default", "base/n3/drop20/dup",
		"base/n3/delay2/default", "base/n3/delay2/dup",
	}
	for i, want := range wantNames {
		if scenarios[i].Name != want {
			t.Fatalf("scenario %d named %q, want %q", i, scenarios[i].Name, want)
		}
	}

	// Deep merge: a mode patch that only sets duplicate_deliveries must
	// keep the base's other explore fields.
	dup := scenarios[1]
	if !dup.Explore.DuplicateDeliveries || dup.Explore.MaxStates != 500000 || dup.Explore.QueueDepth != 2 {
		t.Fatalf("object patch lost base fields: %+v", dup.Explore)
	}
	// Array replacement: the n3 variant replaces the whole agent list
	// and graph.
	n3 := scenarios[6]
	if len(n3.AgentSpecs) != 3 || n3.Graph.N() != 3 {
		t.Fatalf("n3 cell has %d agents over %d nodes", len(n3.AgentSpecs), n3.Graph.N())
	}
	// No leakage: the drop20 patch must not contaminate sibling cells.
	if scenarios[0].Faults.Drop != 0 || scenarios[2].Faults.Drop != 0.2 || scenarios[4].Faults.Drop != 0 {
		t.Fatalf("fault patches leaked across cells: %v %v %v",
			scenarios[0].Faults.Drop, scenarios[2].Faults.Drop, scenarios[4].Faults.Drop)
	}

	// Expansion is deterministic end to end.
	again, err := ExpandSweep([]byte(sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scenarios, again) {
		t.Fatal("two expansions of the same document differ")
	}
}

// TestExpandSweepRuns pushes an expanded grid through the Runner: every
// cell must be a well-formed, verifiable scenario.
func TestExpandSweepRuns(t *testing.T) {
	scenarios, err := ExpandSweep([]byte(sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	results, sum := NewRunner(RunnerOptions{Workers: 4}).Run(context.Background(), scenarios)
	if sum.Total != len(scenarios) || sum.Errors != 0 {
		t.Fatalf("sweep summary %+v", sum)
	}
	for _, r := range results {
		// Lossy cells may legitimately fail to converge in sampled runs;
		// every reliable cell must verify outright.
		if !strings.Contains(r.Scenario, "drop") && r.Status != StatusHolds {
			t.Fatalf("cell %q: %v (violation %v, err %v)", r.Scenario, r.Status, r.Violation, r.Err)
		}
	}
}

// TestExpandSweepArrayReplaceDoesNotLeak is the regression for the
// merge-patch semantics: a variant that replaces an array must not
// inherit omitted fields from the base elements it displaces.
func TestExpandSweepArrayReplaceDoesNotLeak(t *testing.T) {
	scenarios, err := ExpandSweep([]byte(sweepLeakDoc))
	if err != nil {
		t.Fatal(err)
	}
	attacker := scenarios[0].AgentSpecs[1].Policy
	if attacker.ReleaseOutbid {
		t.Fatal("release_outbid leaked from the displaced base agent into the replacement array")
	}
	if attacker.BidsPerRound != 0 {
		t.Fatalf("bids_per_round leaked: %d", attacker.BidsPerRound)
	}
	if attacker.Rebid != mca.RebidAlways {
		t.Fatalf("rebid = %v", attacker.Rebid)
	}
	// The expanded cell must equal the same scenario decoded standalone.
	standalone := `{
  "version": 1,
  "agents": [
    {"id": 0, "items": 2, "base": [10, 15],
     "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}},
    {"id": 1, "items": 2, "base": [15, 10],
     "policy": {"target": 2, "utility": {"kind": "escalating-attack", "cap": 1024}, "rebid": "always"}}
  ],
  "graph": {"nodes": 2, "edges": [{"u": 0, "v": 1}]}
}`
	want, err := DecodeScenario([]byte(standalone))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scenarios[0].AgentSpecs, want.AgentSpecs) {
		t.Fatalf("expanded cell differs from standalone decode:\n got %+v\nwant %+v", scenarios[0].AgentSpecs, want.AgentSpecs)
	}
}

const sweepLeakDoc = `{
  "version": 1,
  "name": "leak",
  "base": {
    "agents": [
      {"id": 0, "items": 2, "base": [10, 15],
       "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change", "bids_per_round": 1}},
      {"id": 1, "items": 2, "base": [15, 10],
       "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change", "bids_per_round": 1}}
    ],
    "graph": {"nodes": 2, "edges": [{"u": 0, "v": 1}]}
  },
  "axes": [
    {"axis": "policy", "variants": [
      {"name": "attack", "scenario": {"agents": [
        {"id": 0, "items": 2, "base": [10, 15],
         "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}},
        {"id": 1, "items": 2, "base": [15, 10],
         "policy": {"target": 2, "utility": {"kind": "escalating-attack", "cap": 1024}, "rebid": "always"}}
      ]}}
    ]}
  ]
}`

const sweepNullDoc = `{
  "version": 1,
  "name": "null",
  "base": {"faults": {"drop": 0.5}, "explore": {"max_states": 99}},
  "axes": [
    {"axis": "net", "variants": [
      {"name": "faulty", "scenario": {}},
      {"name": "clean", "scenario": {"faults": null}}
    ]}
  ]
}`

// TestExpandSweepNullDeletes: an explicit null removes the base value.
func TestExpandSweepNullDeletes(t *testing.T) {
	scenarios, err := ExpandSweep([]byte(sweepNullDoc))
	if err != nil {
		t.Fatal(err)
	}
	if scenarios[0].Faults.Drop != 0.5 {
		t.Fatalf("base faults lost: %+v", scenarios[0].Faults)
	}
	if !scenarios[1].Faults.None() {
		t.Fatalf("null patch did not delete faults: %+v", scenarios[1].Faults)
	}
	if scenarios[1].Explore.MaxStates != 99 {
		t.Fatalf("unrelated field lost: %+v", scenarios[1].Explore)
	}
}

const sweepNoAxesDoc = `{"version": 1, "name": "single", "base": {"name": "only"}}`

func TestExpandSweepNoAxes(t *testing.T) {
	scenarios, err := ExpandSweep([]byte(sweepNoAxesDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 1 || scenarios[0].Name != "only" {
		t.Fatalf("got %+v", scenarios)
	}
}

// sweepErrorDocs are sweep documents expansion must reject.
var sweepErrorDocs = map[string]string{
	"missing-base":     `{"version": 1, "name": "x"}`,
	"wrong-version":    `{"version": 2, "base": {}}`,
	"base-has-version": `{"version": 1, "base": {"version": 1}}`,
	"unnamed-axis":     `{"version": 1, "base": {}, "axes": [{"axis": "", "variants": [{"name": "a", "scenario": {}}]}]}`,
	"empty-axis":       `{"version": 1, "base": {}, "axes": [{"axis": "a", "variants": []}]}`,
	"unnamed-variant":  `{"version": 1, "base": {}, "axes": [{"axis": "a", "variants": [{"name": "", "scenario": {}}]}]}`,
	"dup-variant":      `{"version": 1, "base": {}, "axes": [{"axis": "a", "variants": [{"name": "v", "scenario": {}}, {"name": "v", "scenario": {}}]}]}`,
	"unknown-field":    `{"version": 1, "base": {}, "bonus": true}`,
	"bad-patch":        `{"version": 1, "base": {}, "axes": [{"axis": "a", "variants": [{"name": "v", "scenario": {"nope": 1}}]}]}`,
	"patch-sets-name":  `{"version": 1, "base": {}, "axes": [{"axis": "a", "variants": [{"name": "v", "scenario": {"name": "sneaky"}}]}]}`,
	"patch-version":    `{"version": 1, "base": {}, "axes": [{"axis": "a", "variants": [{"name": "v", "scenario": {"version": 1}}]}]}`,
	// A null patch strict-decodes into a struct and, merged, replaces
	// the whole base: it used to erase max_states and drop silently.
	"null-patch":  `{"version": 1, "base": {"explore": {"max_states": 99}, "faults": {"drop": 0.5}}, "axes": [{"axis": "a", "variants": [{"name": "v", "scenario": null}]}]}`,
	"array-patch": `{"version": 1, "base": {}, "axes": [{"axis": "a", "variants": [{"name": "v", "scenario": []}]}]}`,
	// Conversion errors surface per cell, after every patch has decoded.
	"bad-utility":     `{"version": 1, "base": {}, "axes": [{"axis": "a", "variants": [{"name": "v", "scenario": {"agents": [{"id": 0, "items": 1, "policy": {"target": 1, "utility": {"kind": "nope"}}}]}}]}]}`,
	"fault-off-graph": `{"version": 1, "base": {"graph": {"nodes": 2}}, "axes": [{"axis": "a", "variants": [{"name": "v", "scenario": {"faults": {"partitions": [[0], [2]]}}}]}]}`,
	// The same fault patch fits one variant's graph and not the other's:
	// faults are validated per (faults, graph) pair, not per patch.
	"fault-fits-one-graph": `{"version": 1, "base": {}, "axes": [{"axis": "g", "variants": [{"name": "g3", "scenario": {"graph": {"nodes": 3}}}, {"name": "g2", "scenario": {"graph": {"nodes": 2}}}]}, {"axis": "f", "variants": [{"name": "none", "scenario": {}}, {"name": "cut", "scenario": {"faults": {"partitions": [[0, 1], [2]]}}}]}]}`,
	"merged-bad-type":      `{"version": 1, "base": {"model": {"kind": "test-spec", "spec": {"a": 1}}}, "axes": [{"axis": "a", "variants": [{"name": "v", "scenario": {"model": {"spec": {"a": "one"}}}}]}]}`,
}

func TestExpandSweepErrors(t *testing.T) {
	for name, doc := range sweepErrorDocs {
		t.Run(name, func(t *testing.T) {
			if _, err := ExpandSweep([]byte(doc)); err == nil {
				t.Fatalf("accepted %s", doc)
			}
		})
	}
}

func TestExpandSweepGridCap(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"version": 1, "name": "huge", "base": {}, "axes": [`)
	for ax := 0; ax < 3; ax++ {
		if ax > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"axis": "a%d", "variants": [`, ax)
		for v := 0; v < 50; v++ {
			if v > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"name": "v%d", "scenario": {}}`, v)
		}
		b.WriteString("]}")
	}
	b.WriteString("]}")
	if _, err := ExpandSweep([]byte(b.String())); err == nil {
		t.Fatalf("125000-cell grid accepted")
	}
}
