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
	"repro/internal/netsim"
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
		"-maxstates", "100",
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
// state is an older binary's (magic MCARS3, the sharded frontier's
// format) is intact and checksummed, yet it is not a DFS cut, and an
// older key function's keys belong to another key space; -resume must
// refuse it with the delete-and-re-verify hint instead of continuing
// the run against it.
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
	if !bytes.HasPrefix(cp.State, []byte("MCARS4\n")) {
		t.Fatalf("run state starts %q, want the MCARS4 magic", cp.State[:7])
	}
	copy(cp.State, "MCARS3\n")
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
//   - a path declaring MaxInt64-10 steps, which must not drive an
//     allocation;
//   - a path whose first step is over a pair of agents the line does
//     not connect: it decodes, and the resume's replay refuses it;
//   - a run state cut in half;
//   - visited keys overwritten with 0xff, which are no longer a sorted
//     set.
func TestResumeRefusesCraftedRunState(t *testing.T) {
	for name, craft := range map[string]func(state []byte) []byte{
		"overflowing-length": func([]byte) []byte {
			crafted := []byte("MCARS4\n")
			for _, v := range []uint64{1, 1, math.MaxInt64 - 10} { // states, max depth, path steps
				crafted = binary.AppendUvarint(crafted, v)
			}
			return append(crafted, "steps"...)
		},
		"foreign-step": func(state []byte) []byte {
			return withDFSState(t, state, func(st *explore.DFSState) { st.Path[0].Edge = netsim.Edge{From: 0, To: 2} })
		},
		"truncated-state": func(state []byte) []byte {
			return state[:len(state)/2]
		},
		"0xff-state": func(state []byte) []byte {
			out := bytes.Clone(state)
			for i := len(out) - 32; i < len(out); i++ {
				out[i] = 0xff
			}
			return out
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

// withDFSState edits a DFS run state; the result still decodes.
func withDFSState(t *testing.T, state []byte, edit func(*explore.DFSState)) []byte {
	t.Helper()
	st, err := explore.DecodeDFSState(state)
	if err != nil {
		t.Fatal(err)
	}
	edit(st)
	out := explore.EncodeDFSState(st)
	if _, err := explore.DecodeDFSState(out); err != nil {
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
