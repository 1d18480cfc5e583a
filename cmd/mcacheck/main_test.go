package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
)

func TestParseUtility(t *testing.T) {
	for name, sub := range map[string]bool{
		"submodular": true, "nonsubmodular": false, "flat": true, "escalating": false,
	} {
		u, err := parseUtility(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if u.Submodular() != sub {
			t.Errorf("%s: submodular = %v", name, u.Submodular())
		}
	}
	if _, err := parseUtility("nope"); err == nil {
		t.Error("unknown utility accepted")
	}
}

func TestParseRebid(t *testing.T) {
	cases := map[string]mca.RebidMode{
		"onchange": mca.RebidOnChange,
		"never":    mca.RebidNever,
		"always":   mca.RebidAlways,
	}
	for s, want := range cases {
		got, err := parseRebid(s)
		if err != nil || got != want {
			t.Errorf("%s: got %v, %v", s, got, err)
		}
	}
	if _, err := parseRebid("bogus"); err == nil {
		t.Error("unknown rebid mode accepted")
	}
}

func TestParseTopology(t *testing.T) {
	for s, want := range map[string]graph.Topology{
		"line": graph.TopologyLine, "ring": graph.TopologyRing,
		"star": graph.TopologyStar, "complete": graph.TopologyComplete,
		"random": graph.TopologyRandomConnected,
	} {
		got, err := parseTopology(s)
		if err != nil || got != want {
			t.Errorf("%s: got %v, %v", s, got, err)
		}
	}
	if _, err := parseTopology("torus"); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestRunVerifiedCombination(t *testing.T) {
	code := run([]string{"-agents", "2", "-items", "2", "-utility", "submodular", "-trace=false"})
	if code != 0 {
		t.Fatalf("submodular check exit = %d, want 0", code)
	}
}

func TestRunViolatedCombination(t *testing.T) {
	code := run([]string{"-agents", "2", "-items", "2", "-utility", "nonsubmodular", "-release", "-trace=false"})
	if code != 1 {
		t.Fatalf("nonsubmodular+release exit = %d, want 1", code)
	}
}

func TestRunSweepMatchesResult1(t *testing.T) {
	if code := run([]string{"-sweep", "-agents", "2", "-items", "2"}); code != 0 {
		t.Fatalf("sweep exit = %d, want 0 (expected combinations only)", code)
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-utility", "bogus"},
		{"-rebid", "bogus"},
		{"-topology", "bogus"},
		{"-not-a-flag"},
	} {
		if code := run(args); code != 2 {
			t.Fatalf("args %v: exit = %d, want 2", args, code)
		}
	}
}

func TestBuildSpecs(t *testing.T) {
	pol := mca.Policy{Target: 2, Utility: mca.FlatUtility{}, Rebid: mca.RebidOnChange}
	specs, err := buildSpecs(3, 2, pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("specs = %d", len(specs))
	}
	for i, cfg := range specs {
		if cfg.ID != mca.AgentID(i) {
			t.Fatalf("spec %d has id %d", i, cfg.ID)
		}
	}
}

func TestRunSimulationEngineSelected(t *testing.T) {
	code := run([]string{"-agents", "2", "-items", "2", "-drop", "0.99", "-runs", "4", "-trace=false"})
	if code != 1 {
		t.Fatalf("lossy simulation exit = %d, want 1 (non-convergence)", code)
	}
}

func writeScenario(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunScenarioFile(t *testing.T) {
	holds := `{
  "version": 1,
  "name": "file-demo",
  "agents": [
    {"id": 0, "items": 2, "base": [10, 15],
     "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}},
    {"id": 1, "items": 2, "base": [15, 10],
     "policy": {"target": 2, "utility": {"kind": "submodular-residual"}, "release_outbid": true, "rebid": "on-change"}}
  ],
  "graph": {"nodes": 2, "edges": [{"u": 0, "v": 1}]}
}`
	if code := run([]string{"-scenario", writeScenario(t, holds), "-trace=false"}); code != 0 {
		t.Fatalf("holds scenario exit = %d, want 0", code)
	}
	violated := strings.ReplaceAll(holds, "submodular-residual", "non-submodular-synergy")
	if code := run([]string{"-scenario", writeScenario(t, violated), "-trace=false"}); code != 1 {
		t.Fatalf("violated scenario exit = %d, want 1", code)
	}
}

func TestRunScenarioFileErrors(t *testing.T) {
	if code := run([]string{"-scenario", "no-such-file.json"}); code != 2 {
		t.Fatalf("missing file exit = %d, want 2", code)
	}
	if code := run([]string{"-scenario", writeScenario(t, `{"version": 42}`)}); code != 2 {
		t.Fatalf("bad version exit = %d, want 2", code)
	}
}

// TestRunScenarioFileMalformed: each document of
// internal/engine/testdata/malformed.json (line3.json with one edit)
// exits 2 with one line naming the broken rule, at any -workers — where
// the parent exited 0, 1 (an invented violation) or 2 under a goroutine
// stack, depending on the row.
func TestRunScenarioFileMalformed(t *testing.T) {
	sample, err := os.ReadFile("../../examples/scenarios/line3.json")
	if err != nil {
		t.Fatal(err)
	}
	table, err := os.ReadFile("../../internal/engine/testdata/malformed.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct{ Name, Old, New, Rule string }
	if err := json.Unmarshal(table, &rows); err != nil || len(rows) == 0 {
		t.Fatalf("malformed.json: %d rows, %v", len(rows), err)
	}
	for _, row := range rows {
		path := writeScenario(t, strings.Replace(string(sample), row.Old, row.New, 1))
		for _, workers := range []string{"0", "2"} {
			var code int
			out := captureStderr(t, func() { code = run([]string{"-scenario", path, "-workers", workers}) })
			if code != 2 || strings.Count(out, "\n") != 1 || !strings.Contains(out, row.Rule) {
				t.Errorf("%s at -workers %s: exit %d, stderr %q; want 2 and one line naming %q", row.Name, workers, code, out, row.Rule)
			}
		}
	}
}

func TestRunParallelWorkers(t *testing.T) {
	code := run([]string{"-agents", "2", "-items", "2", "-utility", "submodular", "-workers", "2", "-trace=false"})
	if code != 0 {
		t.Fatalf("parallel check exit = %d, want 0", code)
	}
}
