package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mca"
)

// TestParseUtility: -utility reads the document's utility kinds, and
// the run prints the kind it read; the old CLI spellings are refused.
func TestParseUtility(t *testing.T) {
	for _, kind := range mca.UtilityKinds {
		_, stdout, _ := runCaptured(t, "-utility", kind, "-maxstates", "50", "-trace=false")
		if !strings.Contains(stdout, " p_u="+kind+" ") {
			t.Errorf("-utility %s: header %q", kind, firstLine(stdout))
		}
	}
	for _, old := range []string{"submodular", "nonsubmodular", "escalating", "nope"} {
		if code, _, _ := runCaptured(t, "-utility", old); code != 2 {
			t.Errorf("-utility %s: exit %d, want 2", old, code)
		}
	}
}

func TestParseRebid(t *testing.T) {
	for _, tok := range []string{"on-change", "never", "always"} {
		_, stdout, _ := runCaptured(t, "-rebid", tok, "-maxstates", "50")
		if !strings.Contains(stdout, " rebid=rebid-"+tok+" ") {
			t.Errorf("-rebid %s: header %q", tok, firstLine(stdout))
		}
	}
	for _, old := range []string{"onchange", "bogus"} {
		if code, _, _ := runCaptured(t, "-rebid", old); code != 2 {
			t.Errorf("-rebid %s: exit %d, want 2", old, code)
		}
	}
}

func TestParseTopology(t *testing.T) {
	for tok, want := range map[string]graph.Topology{
		"line": graph.TopologyLine, "ring": graph.TopologyRing,
		"star": graph.TopologyStar, "complete": graph.TopologyComplete,
		"random": graph.TopologyRandomConnected,
	} {
		_, stdout, _ := runCaptured(t, "-topology", tok, "-agents", "3", "-maxstates", "50")
		if !strings.Contains(stdout, fmt.Sprintf("3 agents (%s)", want)) {
			t.Errorf("-topology %s: header %q", tok, firstLine(stdout))
		}
	}
	if code, _, _ := runCaptured(t, "-topology", "torus"); code != 2 {
		t.Error("unknown topology accepted")
	}
}

// TestParseStore: -store reads the document's lossy-store tokens; the
// exact store is the omitted flag, and hashcompact was the old spelling.
func TestParseStore(t *testing.T) {
	for _, tok := range []string{"bitstate", "hash-compact"} {
		if code, stdout, _ := runCaptured(t, "-store", tok); code != 0 || !strings.Contains(stdout, "lossy store:") {
			t.Errorf("-store %s: exit %d, stdout %q", tok, code, stdout)
		}
	}
	for _, old := range []string{"exact", "hashcompact"} {
		if code, _, _ := runCaptured(t, "-store", old); code != 2 {
			t.Errorf("-store %s: exit %d, want 2", old, code)
		}
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

func TestRunVerifiedCombination(t *testing.T) {
	code := run([]string{"-agents", "2", "-items", "2", "-utility", "submodular-residual", "-trace=false"})
	if code != 0 {
		t.Fatalf("submodular check exit = %d, want 0", code)
	}
}

func TestRunViolatedCombination(t *testing.T) {
	code := run([]string{"-agents", "2", "-items", "2", "-utility", "non-submodular-synergy", "-release", "-trace=false"})
	if code != 1 {
		t.Fatalf("nonsubmodular+release exit = %d, want 1", code)
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
			code, _, out := runCaptured(t, "-scenario", path, "-workers", workers)
			if code != 2 || strings.Count(out, "\n") != 1 || !strings.Contains(out, row.Rule) {
				t.Errorf("%s at -workers %s: exit %d, stderr %q; want 2 and one line naming %q", row.Name, workers, code, out, row.Rule)
			}
		}
	}
}

// TestRunParallelWorkers: -workers sizes only a SAT portfolio, so an
// explicit check, which always runs the serial DFS, refuses it by name.
func TestRunParallelWorkers(t *testing.T) {
	code, _, stderr := runCaptured(t, "-agents", "2", "-items", "2", "-utility", "submodular-residual", "-workers", "2", "-trace=false")
	if code != 2 || !strings.Contains(stderr, "-workers") {
		t.Fatalf("explicit check with -workers: exit = %d, stderr %q; want 2 naming -workers", code, stderr)
	}
}
