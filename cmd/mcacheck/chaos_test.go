package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/explore"
)

// runCaptured runs mcacheck with args and returns its exit code and
// what it wrote to stdout and stderr. run() prints operator-facing
// diagnostics on stderr, and the corrupt-checkpoint hint is part of
// the contract.
func runCaptured(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var files [2]*os.File
	for i := range files {
		f, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	func() {
		defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
		code = run(args)
	}()
	var out [2]string
	for i, f := range files {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(data)
	}
	return code, out[0], out[1]
}

// cappedRunArgs is a scenario that trips the -maxstates cap so a
// checkpoint is written: 3 agents, 2 items, line topology is ~500
// states uncapped.
func cappedRunArgs(checkpoint string) []string {
	return []string{
		"-agents", "3", "-items", "2", "-topology", "line",
		"-workers", "2", "-maxstates", "100",
		"-checkpoint", checkpoint, "-trace=false",
	}
}

func TestCheckpointResumeLifecycle(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "run.ckpt")
	if code := run(cappedRunArgs(cp)); code != 3 {
		t.Fatalf("capped run exit = %d, want 3 (inconclusive)", code)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	code := run([]string{"-resume", cp, "-maxstates", "500000", "-trace=false"})
	if code != 0 {
		t.Fatalf("resume exit = %d, want 0 (holds)", code)
	}
}

func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "garbage.ckpt")
	if err := os.WriteFile(cp, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, out := runCaptured(t, "-resume", cp, "-trace=false")
	if code != 2 {
		t.Fatalf("corrupt resume exit = %d, want 2", code)
	}
	if !strings.Contains(out, "corrupt or truncated") || !strings.Contains(out, "delete it and re-verify") {
		t.Fatalf("missing clean re-verify hint, stderr:\n%s", out)
	}
}

// TestResumeRefusesCheckpointOfOlderBinary: a checkpoint whose run
// state predates the current canonical key function (magic MCARS2) is
// intact and checksummed, yet its keys belong to another key space;
// -resume must refuse it with the delete-and-re-verify hint instead of
// continuing the run against it.
func TestResumeRefusesCheckpointOfOlderBinary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ckpt")
	if code := run(cappedRunArgs(path)); code != 3 {
		t.Fatalf("capped run exit = %d, want 3 (inconclusive)", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := engine.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(cp.State, []byte("MCARS3\n")) {
		t.Fatalf("run state starts %q, want the MCARS3 magic", cp.State[:7])
	}
	copy(cp.State, "MCARS2\n")
	old, err := engine.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, out := runCaptured(t, "-resume", path, "-maxstates", "500000", "-trace=false")
	if code != 2 {
		t.Fatalf("resume from an older binary's checkpoint exit = %d, want 2", code)
	}
	if !strings.Contains(out, "corrupt or truncated") || !strings.Contains(out, "delete it and re-verify") {
		t.Fatalf("missing clean re-verify hint, stderr:\n%s", out)
	}
}

// TestResumeRefusesCraftedRunState: the checksum envelope is no secret,
// so a checkpoint can carry a valid envelope around a crafted run state.
// -resume must refuse each with the delete-and-re-verify hint:
//   - a frontier item declaring a packed state of MaxInt64-10 bytes,
//     on which the run-state decoder once sliced past its buffer;
//   - a frontier item whose packed state is cut to one byte, or
//     overwritten with 0xff: both decode as run states, and resuming
//     them once panicked inside the agents' state decoder.
func TestResumeRefusesCraftedRunState(t *testing.T) {
	for name, craft := range map[string]func(state []byte) []byte{
		"overflowing-length": func([]byte) []byte {
			crafted := []byte("MCARS3\n")
			for _, v := range []uint64{1, 1, 0, 1, 1} { // next level, states, max depth, nodes, seen
				crafted = binary.AppendUvarint(crafted, v)
			}
			crafted = append(crafted, make([]byte, 16+6)...) // one root node
			crafted = append(crafted, 1, 0)                  // one frontier item, on node 0,
			crafted = append(crafted, make([]byte, 8)...)    // with a route fingerprint
			crafted = binary.AppendUvarint(crafted, math.MaxInt64-10)
			return append(crafted, "state"...)
		},
		"truncated-state": func(state []byte) []byte {
			return withFrontierState(t, state, func(b []byte) []byte { return b[:1] })
		},
		"0xff-state": func(state []byte) []byte {
			return withFrontierState(t, state, func(b []byte) []byte { return bytes.Repeat([]byte{0xff}, len(b)) })
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "crafted.ckpt")
			if code := run(cappedRunArgs(path)); code != 3 {
				t.Fatalf("capped run exit = %d, want 3 (inconclusive)", code)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := engine.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			cp.State = craft(cp.State)
			enc, err := engine.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			code, _, out := runCaptured(t, "-resume", path, "-maxstates", "500000", "-trace=false")
			if code != 2 {
				t.Fatalf("resume from a crafted run state exit = %d, want 2", code)
			}
			if !strings.Contains(out, "corrupt or truncated") || !strings.Contains(out, "delete it and re-verify") {
				t.Fatalf("missing clean re-verify hint, stderr:\n%s", out)
			}
		})
	}
}

// withFrontierState rewrites the packed state of a run state's first
// frontier item; the result still decodes as a run state.
func withFrontierState(t *testing.T, state []byte, edit func([]byte) []byte) []byte {
	t.Helper()
	rs, err := explore.DecodeRunState(state)
	if err != nil {
		t.Fatal(err)
	}
	rs.Frontier[0].State = edit(rs.Frontier[0].State)
	out := explore.EncodeRunState(rs)
	if _, err := explore.DecodeRunState(out); err != nil {
		t.Fatalf("crafted run state no longer decodes: %v", err)
	}
	return out
}

// TestChaosCheckpointWriteDegradesOnResume is the end-to-end failure
// path: arm bit-flip injection on the checkpoint write, cap a run, and
// resume from the mangled file. The resume must fail with the typed
// error and the operator hint — never a panic, never a verdict
// computed from damaged state.
func TestChaosCheckpointWriteDegradesOnResume(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "mangled.ckpt")
	args := append(cappedRunArgs(cp), "-chaos", "seed=1,flip=1")
	if code := run(args); code != 3 {
		t.Fatalf("capped chaos run exit = %d, want 3", code)
	}
	code, _, out := runCaptured(t, "-resume", cp, "-maxstates", "500000", "-trace=false")
	if code != 2 {
		t.Fatalf("resume from mangled checkpoint exit = %d, want 2", code)
	}
	if !strings.Contains(out, "corrupt or truncated") {
		t.Fatalf("missing corruption diagnosis, stderr:\n%s", out)
	}
}

// TestChaosSpecErrorsExitCleanly: a bad spec on a run that writes a
// checkpoint is a spec error; on a run that writes none, -chaos itself
// is refused.
func TestChaosSpecErrorsExitCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	for _, spec := range []string{"crash=2", "bogus=1", "flip"} {
		if code, _, stderr := runCaptured(t, append(cappedRunArgs(path), "-chaos", spec)...); code != 2 || !strings.Contains(stderr, "mcacheck: chaos: ") {
			t.Fatalf("spec %q exit = %d, stderr %q; want 2 and the spec error", spec, code, stderr)
		}
		if code, _, stderr := runCaptured(t, "-chaos", spec, "-trace=false"); code != 2 || !strings.Contains(stderr, "-chaos does not apply") {
			t.Fatalf("spec %q without a checkpoint: exit = %d, stderr %q; want 2 naming -chaos", spec, code, stderr)
		}
	}
}
