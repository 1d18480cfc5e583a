package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestEveryFlagIsReadOrRefused walks every flag across the three
// scenario sources — flags, -scenario and -resume. A set flag is either
// honoured, or refused with exit 2 and a message naming it. Honoured
// means the exit code, stdout or the files the run leaves differ from
// the same run without the flag; a -checkpoint on a run that concludes
// and a -trace with no trace to print are verdict-neutral, so for them
// honoured means accepted with nothing changed. -workers sizes only a
// SAT portfolio: every explicit run refuses it.
func TestEveryFlagIsReadOrRefused(t *testing.T) {
	const (
		refused = iota
		changes
		neutral
	)
	type row struct {
		base        []string
		flag, value string
		want        int
	}
	with := func(base []string, extra ...string) []string { return append(slices.Clip(base), extra...) }
	var (
		doc       = []string{"-scenario", "line3.json"}
		resume    = []string{"-resume", "run.ckpt"}
		sim       = []string{"-drop", "0.2"}
		violating = []string{"-utility", "non-submodular-synergy"}
		capped    = []string{"-agents", "3", "-topology", "line", "-maxstates", "40"}
		docCapped = with(doc, "-maxstates", "40")
	)
	rows := []row{
		{nil, "agents", "1", changes},
		{nil, "items", "1", changes},
		{nil, "topology", "line", changes},
		{sim, "seed", "7", changes},
		{nil, "utility", "non-submodular-synergy", changes},
		{violating, "release", "false", changes},
		{nil, "rebid", "never", changes},
		{violating, "target", "1", changes},
		{nil, "maxstates", "3", changes},
		{sim, "maxstates", "3", refused},
		{nil, "workers", "2", refused},
		{sim, "workers", "2", refused},
		{nil, "store", "bitstate", changes},
		{nil, "storebits", "12", refused},
		{[]string{"-store", "bitstate"}, "storebits", "12", changes},
		{nil, "checkpoint", "out.ckpt", neutral},
		{sim, "checkpoint", "out.ckpt", refused},
		{capped, "checkpoint", "out.ckpt", changes},
		{nil, "resume", "run.ckpt", changes},
		{nil, "scenario", "line3.json", changes},
		{nil, "drop", "0.99", changes},
		{nil, "delay", "2", changes},
		{nil, "runs", "4", refused},
		{sim, "runs", "4", changes},
		{nil, "timeout", "1ns", changes},
		{violating, "trace", "false", changes},
		{nil, "cpuprofile", "cpu.prof", changes},
		{nil, "memprofile", "mem.prof", changes},
		{nil, "chaos", "seed=1,flip=1", refused},
		{with(capped, "-checkpoint", "out.ckpt"), "chaos", "seed=1,flip=1", changes},

		{doc, "maxstates", "10", changes},
		{doc, "workers", "2", refused},
		{doc, "checkpoint", "out.ckpt", neutral},
		{docCapped, "checkpoint", "out.ckpt", changes},
		{doc, "chaos", "seed=1,flip=1", refused},
		{with(docCapped, "-checkpoint", "out.ckpt"), "chaos", "seed=1,flip=1", changes},
		{doc, "resume", "run.ckpt", refused},
		{doc, "timeout", "1ns", changes},
		{doc, "trace", "false", neutral},
		{doc, "cpuprofile", "cpu.prof", changes},
		{doc, "memprofile", "mem.prof", changes},

		{resume, "maxstates", "200000", changes},
		{resume, "workers", "3", refused},
		{resume, "checkpoint", "out.ckpt", changes},
		{resume, "chaos", "seed=1,flip=1", changes},
		{resume, "scenario", "line3.json", refused},
		{resume, "timeout", "1ns", changes},
		{resume, "trace", "false", neutral},
		{resume, "cpuprofile", "cpu.prof", changes},
		{resume, "memprofile", "mem.prof", changes},
	}
	// The scenario-shaping flags, and -seed and -runs outside a
	// simulation, shape only a flag-built scenario.
	for _, source := range [][]string{doc, resume} {
		for _, f := range [][2]string{
			{"agents", "9"}, {"items", "3"}, {"topology", "ring"}, {"seed", "7"},
			{"utility", "flat"}, {"release", "false"}, {"rebid", "never"}, {"target", "1"},
			{"drop", "0.2"}, {"delay", "2"}, {"store", "bitstate"}, {"storebits", "12"}, {"runs", "4"},
		} {
			rows = append(rows, row{source, f[0], f[1], refused})
		}
	}

	sourceOf := func(args []string) string {
		if len(args) > 0 && (args[0] == "-scenario" || args[0] == "-resume") {
			return args[0]
		}
		return "flags"
	}
	covered := map[string]bool{}
	for _, r := range rows {
		covered[sourceOf(r.base)+" "+r.flag] = true
	}
	newCmdline().fs.VisitAll(func(f *flag.Flag) {
		for _, source := range []string{"flags", "-scenario", "-resume"} {
			if source != "-"+f.Name && !covered[source+" "+f.Name] {
				t.Errorf("no row sets -%s on a run whose scenario comes from %s", f.Name, source)
			}
		}
	})

	// Every run starts in a fresh directory holding line3.json and
	// run.ckpt, a checkpoint of line-3 capped at 40 states.
	line3, err := os.ReadFile("../../examples/scenarios/line3.json")
	if err != nil {
		t.Fatal(err)
	}
	setup := t.TempDir()
	if err := os.WriteFile(filepath.Join(setup, "line3.json"), line3, 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(setup, "run.ckpt")
	if code, _, stderr := runCaptured(t, "-scenario", filepath.Join(setup, "line3.json"), "-maxstates", "40", "-checkpoint", ckpt); code != 3 {
		t.Fatalf("capped run: exit %d, stderr %q", code, stderr)
	}
	runCkpt, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// observe runs mcacheck and returns what a reader of the run sees:
	// the exit code, stdout and a digest of every file left behind.
	observe := func(args []string) (seen string, code int, stderr string) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{"line3.json": line3, "run.ckpt": runCkpt} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Chdir(dir); err != nil {
			t.Fatal(err)
		}
		defer os.Chdir(wd)
		code, stdout, stderr := runCaptured(t, args...)
		var b strings.Builder
		fmt.Fprintf(&b, "exit %d\n%s", code, stdout)
		entries, err := os.ReadDir(".")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(e.Name())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "file %s %x\n", e.Name(), sha256.Sum256(data))
		}
		return b.String(), code, stderr
	}

	bases := map[string]string{}
	for _, r := range rows {
		args := with(r.base, "-"+r.flag+"="+r.value)
		seen, code, stderr := observe(args)
		if r.want == refused {
			if code != 2 || !strings.Contains(stderr, "-"+r.flag) {
				t.Errorf("mcacheck %s: exit %d, stderr %q; want 2 naming -%s", strings.Join(args, " "), code, stderr, r.flag)
			}
			continue
		}
		key := strings.Join(r.base, " ")
		if _, ok := bases[key]; !ok {
			bases[key], _, _ = observe(r.base)
		}
		switch {
		case code == 2:
			t.Errorf("mcacheck %s: refused (%q), want it honoured", strings.Join(args, " "), stderr)
		case r.want == changes && seen == bases[key]:
			t.Errorf("mcacheck %s: nothing differs from the run without -%s:\n%s", strings.Join(args, " "), r.flag, seen)
		case r.want == neutral && seen != bases[key]:
			t.Errorf("mcacheck %s: differs from the run without -%s:\n%s\nwithout:\n%s", strings.Join(args, " "), r.flag, seen, bases[key])
		}
	}

	// -sweep is gone: Result 1 is experiments -only e3 and
	// examples/policysweep.
	if code, _, stderr := runCaptured(t, "-sweep", "-workers", "4"); code != 2 || !strings.Contains(stderr, "-sweep") {
		t.Errorf("mcacheck -sweep -workers 4: exit %d, stderr %q; want 2 naming -sweep", code, stderr)
	}
}
