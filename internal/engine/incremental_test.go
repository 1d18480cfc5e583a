package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/mcamodel"
)

// assertStateSweep builds the canonical incremental workload: one model
// family per encoding, fanned out over every assert-state variant, so
// all variants of an encoding share a base key and exercise one
// persistent session.
func assertStateSweep(t testing.TB) []engine.Scenario {
	t.Helper()
	sc := mcamodel.Scope{PNodes: 2, VNodes: 1, Values: 2, States: 3, Msgs: 1, IntBitwidth: 2}
	var out []engine.Scenario
	for _, name := range []string{"naive", "optimized"} {
		var (
			enc *mcamodel.Encoding
			err error
		)
		if name == "naive" {
			enc, err = mcamodel.BuildNaive(sc)
		} else {
			enc, err = mcamodel.BuildOptimized(sc)
		}
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= sc.States; k++ {
			variant := enc
			if k > 0 {
				variant, err = enc.WithAssertState(k)
				if err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, engine.Scenario{
				Name:  fmt.Sprintf("%s/assert_state=%d", name, k),
				Model: variant,
			})
		}
	}
	return out
}

// TestIncrementalSweepMatchesOneShot is the incremental-SAT smoke test:
// a sweep over assert-state variants, run twice through one shared
// session pool (the second pass reuses fully warmed sessions), must be
// verdict-identical to one-shot verification of every scenario. CI runs
// this under the race detector.
func TestIncrementalSweepMatchesOneShot(t *testing.T) {
	scenarios := assertStateSweep(t)

	oneShot := engine.NewRunner(engine.RunnerOptions{Workers: 2, Engine: engine.SAT{}})
	want, _ := oneShot.Run(context.Background(), scenarios)

	incr := engine.NewRunner(engine.RunnerOptions{
		Workers:        2,
		Engine:         engine.SAT{},
		IncrementalSAT: true,
	})
	for pass := 1; pass <= 2; pass++ {
		got, _ := incr.Run(context.Background(), scenarios)
		for i := range scenarios {
			if got[i].Status != want[i].Status || got[i].SATStatus != want[i].SATStatus {
				t.Errorf("pass %d %s: incremental (%v, %v) != one-shot (%v, %v)",
					pass, scenarios[i].Name,
					got[i].Status, got[i].SATStatus,
					want[i].Status, want[i].SATStatus)
			}
		}
	}
}

// The session pool must actually be shared: all variants of one
// encoding land in one session, so the pool holds one entry per base
// family, and later variants skip the base translation entirely.
func TestSessionPoolSharesBaseFamilies(t *testing.T) {
	scenarios := assertStateSweep(t)
	pool := engine.NewSessionPool()
	eng := engine.SAT{Sessions: pool}
	for _, s := range scenarios {
		res := eng.Verify(context.Background(), s)
		if res.Status == engine.StatusError {
			t.Fatalf("%s: %v", s.Name, res.Err)
		}
	}
	if pool.Len() != 2 { // one family per encoding
		t.Fatalf("pool has %d sessions, want 2", pool.Len())
	}
}

// The pool is a runtime handle: it must not leak into content addresses
// or engine specs, so incremental and one-shot runs share cache entries
// and wire forms.
func TestSessionsExcludedFromCacheKeyAndSpec(t *testing.T) {
	scenarios := assertStateSweep(t)
	s := scenarios[0]
	plain := engine.SAT{}
	pooled := engine.SAT{Sessions: engine.NewSessionPool()}

	k1, err := engine.CacheKey(&s, plain)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := engine.CacheKey(&s, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("cache keys diverge: %s vs %s", k1, k2)
	}

	sp1, err := engine.EncodeEngineSpec(plain)
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := engine.EncodeEngineSpec(pooled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sp1, sp2) {
		t.Fatalf("engine specs diverge: %s vs %s", sp1, sp2)
	}
}

// Assert-state variants must round-trip through the scenario codec:
// the wire form carries assert_state, and the decoded model rebuilds
// the same variant (same encoding, scope and assert state, so the same
// session family).
func TestAssertStateScenarioRoundTrip(t *testing.T) {
	scenarios := assertStateSweep(t)
	for _, s := range scenarios {
		data, err := engine.EncodeScenario(&s)
		if err != nil {
			t.Fatalf("%s: encode: %v", s.Name, err)
		}
		dec, err := engine.DecodeScenario(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name, err)
		}
		re, err := engine.EncodeScenario(&dec)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", s.Name, err)
		}
		if !bytes.Equal(data, re) {
			t.Fatalf("%s: round trip not byte-identical:\n%s\n%s", s.Name, data, re)
		}
		w, g := s.Model, dec.Model
		if w.Name != g.Name || w.Scope != g.Scope || w.AssertState != g.AssertState {
			t.Fatalf("%s: model changed across the wire: %s %v %d vs %s %v %d",
				s.Name, w.Name, w.Scope, w.AssertState, g.Name, g.Scope, g.AssertState)
		}
	}
}

// satScenarioKey is the content address of assertStateSweep's first
// scenario (the naive encoding, assert_state=0) under Auto{}, which
// resolves to SAT{}. Like sweepDocKeys (sweepdiff_test.go), it moves
// only on purpose: a change to the sat engine spec or to the mca-model
// codec changes it, and a persistent cache filled by an older build
// then misses every SAT entry. A CacheEpoch bump moves it too (last:
// epoch 3, the address hashing the engine spec).
const satScenarioKey = "52da5d445da1fb8a741c9d464412587149865db7fca4eaf220323114de7ad0b3"

func TestSATContentAddressIsGolden(t *testing.T) {
	s := assertStateSweep(t)[0]
	for _, e := range []engine.Engine{engine.Auto{}, engine.SAT{}} {
		if key, err := engine.CacheKey(&s, e); err != nil || key != satScenarioKey {
			t.Errorf("%s: CacheKey %s (%v), want %s", e.Name(), key, err, satScenarioKey)
		}
	}
}
