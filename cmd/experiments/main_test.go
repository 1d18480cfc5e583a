package main

import "testing"

// Each experiment must run cleanly and reproduce its expected verdicts
// (the experiment functions error on any mismatch with the paper).
func TestAllExperiments(t *testing.T) {
	if code := run(nil); code != 0 {
		t.Fatalf("experiments exit = %d, want 0", code)
	}
}

func TestSingleExperimentSelection(t *testing.T) {
	if code := run([]string{"-only", "e1"}); code != 0 {
		t.Fatalf("e1 exit = %d", code)
	}
	if code := run([]string{"-only", "E6"}); code != 0 {
		t.Fatalf("case-insensitive selection failed")
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	// e8 and e9 were retired: bench/ measures what they timed.
	for _, name := range []string{"e99", "e8", "e9"} {
		if code := run([]string{"-only", name}); code != 2 {
			t.Fatalf("-only %s: exit = %d, want 2", name, code)
		}
	}
}

func TestBadFlagRejected(t *testing.T) {
	if code := run([]string{"-nope"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
