package mcamodel

import (
	"testing"

	"repro/internal/relalg"
)

func TestWithAssertStateVariants(t *testing.T) {
	sc := Scope{PNodes: 2, VNodes: 1, Values: 2, States: 3, Msgs: 1, IntBitwidth: 2}
	enc, err := BuildOptimized(sc)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= sc.States; k++ {
		v, err := enc.WithAssertState(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if v.AssertState != k {
			t.Fatalf("k=%d: AssertState=%d", k, v.AssertState)
		}
		if v.Bounds != enc.Bounds || v.Background != enc.Background {
			t.Fatalf("k=%d: variant does not share bounds/background with the base", k)
		}
		// Another encoding of the same builder and scope — a session's
		// seed — rebuilds the same assertion over its own relations
		// (identical closure, identical state index ⇒ equal rendering).
		seed, err := BuildOptimized(sc)
		if err != nil {
			t.Fatal(err)
		}
		again, err := seed.WithAssertState(k)
		if err != nil {
			t.Fatalf("k=%d: seed: %v", k, err)
		}
		if relalg.FormulaString(again.Consensus) != relalg.FormulaString(v.Consensus) {
			t.Fatalf("k=%d: the seed's assertion disagrees with the variant's", k)
		}
	}
	for _, k := range []int{sc.States + 1, -1} {
		if _, err := enc.WithAssertState(k); err == nil {
			t.Fatalf("out-of-range assert state %d accepted", k)
		}
	}
	if _, err := (&Encoding{Name: "adhoc", Scope: sc}).ConsensusAt(0); err == nil {
		t.Fatal("builder-less encoding produced a per-state consensus")
	}
}
