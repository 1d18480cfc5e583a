package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureRun executes run() with its output captured in a buffer.
func captureRun(t *testing.T, args []string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	code := run(args, &buf)
	return buf.String(), code
}

// The acceptance contract: the same seed produces byte-identical output
// and a byte-identical dumped corpus at 1 and 8 workers.
func TestMcafuzzReproducibleAcrossWorkers(t *testing.T) {
	var outs []string
	var corpora []map[string][]byte
	for _, workers := range []string{"1", "8"} {
		dir := t.TempDir()
		out, code := captureRun(t, []string{
			"-seed", "5", "-n", "12", "-workers", workers, "-dump", "-out", dir,
		})
		if code != 0 {
			t.Fatalf("workers=%s: exit %d\n%s", workers, code, out)
		}
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		if len(files) != 12 {
			t.Fatalf("workers=%s: dumped %d corpus files, want 12", workers, len(files))
		}
		outs = append(outs, out)
		corpora = append(corpora, files)
	}
	if outs[0] != outs[1] {
		t.Fatalf("output differs across worker counts:\n--- workers=1\n%s\n--- workers=8\n%s", outs[0], outs[1])
	}
	for name, data := range corpora[0] {
		if !bytes.Equal(data, corpora[1][name]) {
			t.Fatalf("corpus file %s differs across worker counts", name)
		}
	}
}

// A profile file restricts the corpus, and its knobs are honoured.
func TestMcafuzzProfileFile(t *testing.T) {
	dir := t.TempDir()
	profile := filepath.Join(dir, "profile.json")
	if err := os.WriteFile(profile, []byte(`{"agents":{"min":2,"max":2},"topologies":["line"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := captureRun(t, []string{"-seed", "2", "-n", "5", "-profile", profile, "-engines", "explicit"})
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "profile="+profile) {
		t.Fatalf("profile provenance missing:\n%s", out)
	}
	if !strings.Contains(out, "summary: scenarios=5") {
		t.Fatalf("summary missing:\n%s", out)
	}
}

// The checked-in example profile stays decodable and runnable.
func TestMcafuzzExampleProfile(t *testing.T) {
	out, code := captureRun(t, []string{
		"-seed", "4", "-n", "6", "-engines", "simulation",
		"-profile", filepath.Join("..", "..", "examples", "scenarios", "fuzz-profile.json"),
	})
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "summary: scenarios=6") {
		t.Fatalf("summary missing:\n%s", out)
	}
}

// The coverage loop streams one stats line per round and dumps a
// byte-identical corpus at any worker count — the CLI face of the
// FuzzCoverage replay contract.
func TestMcafuzzCoverageReproducibleAcrossWorkers(t *testing.T) {
	var outs []string
	var corpora []map[string][]byte
	for _, workers := range []string{"1", "8"} {
		dir := t.TempDir()
		out, code := captureRun(t, []string{
			"-coverage", "-seed", "3", "-rounds", "3", "-n", "12",
			"-workers", workers, "-dump", "-out", dir,
		})
		if code != 0 {
			t.Fatalf("workers=%s: exit %d\n%s", workers, code, out)
		}
		for round := 0; round < 3; round++ {
			if !strings.Contains(out, "round "+string(rune('0'+round))+": scenarios=4") {
				t.Fatalf("workers=%s: round %d stats line missing:\n%s", workers, round, out)
			}
		}
		if !strings.Contains(out, "summary: rounds=3 scenarios=12") {
			t.Fatalf("workers=%s: summary missing:\n%s", workers, out)
		}
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		if len(files) == 0 {
			t.Fatalf("workers=%s: coverage corpus empty", workers)
		}
		outs = append(outs, out)
		corpora = append(corpora, files)
	}
	if outs[0] != outs[1] {
		t.Fatalf("coverage output differs across worker counts:\n--- workers=1\n%s\n--- workers=8\n%s", outs[0], outs[1])
	}
	if len(corpora[0]) != len(corpora[1]) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(corpora[0]), len(corpora[1]))
	}
	for name, data := range corpora[0] {
		if !bytes.Equal(data, corpora[1][name]) {
			t.Fatalf("corpus file %s differs across worker counts", name)
		}
	}
}

// TestMcafuzzCoverageIsGolden pins the coverage loop's stats lines for
// one seed to testdata/coverage_seed1.txt, the lines docs/FUZZING.md
// shows: a change to how a leg's signature is derived, or to the
// mutation schedule, moves a bucket count here.
func TestMcafuzzCoverageIsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "coverage_seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out, code := captureRun(t, []string{"-coverage", "-seed", "1", "-rounds", "5", "-n", "40"})
	if code != 0 || out != string(want) {
		t.Fatalf("exit %d, output:\n%s\nwant:\n%s", code, out, want)
	}
}

func TestMcafuzzUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-engines", "warp-drive"},
		{"-profile", "/does/not/exist.json"},
		{"-n", "-3"},
		{"-shrink"}, // corpus-writing flags require -out
		{"-dump"},
		{"-coverage", "-rounds", "0"},
	}
	for _, args := range cases {
		if _, code := captureRun(t, args); code != 2 {
			t.Fatalf("args %v: exit code != 2", args)
		}
	}
}

// TestRoundsRequiresCoverage: -rounds splits a coverage-guided run, so
// without -coverage it is a usage error naming the flag, as -shrink and
// -dump without -out are — not a silently ignored option.
func TestRoundsRequiresCoverage(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stderr
	os.Stderr = f
	out, code := captureRun(t, []string{"-n", "1", "-rounds", "9"})
	os.Stderr = old
	stderr, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 || out != "" || !strings.Contains(string(stderr), "-rounds") {
		t.Fatalf("-n 1 -rounds 9: exit %d, stdout %q, stderr %q; want 2 naming -rounds", code, out, stderr)
	}
}
