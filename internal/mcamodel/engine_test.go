package mcamodel_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mcamodel"
	"repro/internal/sat"
)

// The model as the engine layer sees it: a Scenario's Model, checked by
// engine.SAT and written in the engine's "mca-model" format. These tests
// are an external package because engine imports mcamodel.

func tinyScope() mcamodel.Scope {
	return mcamodel.Scope{PNodes: 2, VNodes: 1, Values: 2, States: 2, Msgs: 1}
}

func check(t *testing.T, eng engine.Engine, e *mcamodel.Encoding) engine.Result {
	t.Helper()
	res := eng.Verify(context.Background(), engine.Scenario{Name: e.Name, Model: e})
	if res.Status == engine.StatusError {
		t.Fatalf("%s on %s: %v", eng.Name(), e.Name, res.Err)
	}
	return res
}

// The consensus check on the naive tiny scope must find a counterexample
// (a single message between two agents cannot reconcile both directions)
// and agree with the optimized encoding's verdict.
func TestConsensusCheckAgreesAcrossEncodings(t *testing.T) {
	n, err := mcamodel.BuildNaive(tinyScope())
	if err != nil {
		t.Fatal(err)
	}
	o, err := mcamodel.BuildOptimized(tinyScope())
	if err != nil {
		t.Fatal(err)
	}
	rn, ro := check(t, engine.SAT{}, n), check(t, engine.SAT{}, o)
	if rn.SATStatus != ro.SATStatus {
		t.Fatalf("encodings disagree: naive=%v optimized=%v", rn.SATStatus, ro.SATStatus)
	}
	if rn.SATStatus != sat.StatusSat || rn.Status != engine.StatusViolated {
		t.Fatalf("expected a counterexample at the tiny scope, got %v/%v", rn.Status, rn.SATStatus)
	}
}

// The portfolio must reach the same consensus-check verdict as the
// serial solver on both encodings.
func TestConsensusCheckParallelAgreesWithSerial(t *testing.T) {
	for _, build := range []func(mcamodel.Scope) (*mcamodel.Encoding, error){mcamodel.BuildNaive, mcamodel.BuildOptimized} {
		e, err := build(tinyScope())
		if err != nil {
			t.Fatal(err)
		}
		serial := check(t, engine.SAT{}, e)
		portfolio := check(t, engine.SAT{Workers: 3}, e)
		if portfolio.SATStatus != serial.SATStatus {
			t.Fatalf("%s: portfolio=%v serial=%v", e.Name, portfolio.SATStatus, serial.SATStatus)
		}
		if portfolio.Stats.Clauses != serial.Stats.Clauses {
			t.Fatalf("%s: translation size changed under parallel solve: %d vs %d",
				e.Name, portfolio.Stats.Clauses, serial.Stats.Clauses)
		}
	}
}

// TestModelScenarioRoundTrip round-trips SAT scenarios carrying both
// encodings through the engine codec: canonical bytes and a model that
// rebuilds the same relational problem.
func TestModelScenarioRoundTrip(t *testing.T) {
	sc := mcamodel.Scope{PNodes: 2, VNodes: 2, Values: 3, States: 2, Msgs: 1, IntBitwidth: 3}
	for _, build := range []func(mcamodel.Scope) (*mcamodel.Encoding, error){mcamodel.BuildNaive, mcamodel.BuildOptimized} {
		e, err := build(sc)
		if err != nil {
			t.Fatal(err)
		}
		s := engine.Scenario{Name: "model/" + e.Name, Model: e}
		enc1, err := engine.EncodeScenario(&s)
		if err != nil {
			t.Fatalf("%s: encode: %v", e.Name, err)
		}
		s2, err := engine.DecodeScenario(enc1)
		if err != nil {
			t.Fatalf("%s: decode: %v\n%s", e.Name, err, enc1)
		}
		enc2, err := engine.EncodeScenario(&s2)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", e.Name, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: canonical re-encode differs:\n first: %s\nsecond: %s", e.Name, enc1, enc2)
		}
		decoded := s2.Model
		if decoded.Name != e.Name || decoded.Scope != e.Scope {
			t.Fatalf("%s: decoded %q %+v, want %q %+v", e.Name, decoded.Name, decoded.Scope, e.Name, e.Scope)
		}
		// The decoded model must measure identically to the original —
		// the scenario genuinely rebuilds the same relational problem.
		if got, want := mcamodel.MeasureTranslation(decoded), mcamodel.MeasureTranslation(e); got.Clauses != want.Clauses ||
			got.PrimaryVars != want.PrimaryVars || got.AuxVars != want.AuxVars {
			t.Fatalf("%s: decoded model translates differently: %+v vs %+v", e.Name, got, want)
		}
	}
}

func TestModelSpecDecodeErrors(t *testing.T) {
	for name, tc := range map[string]struct{ doc, rule string }{
		"unknown-encoding": {`{"version":1,"model":{"kind":"mca-model","spec":{"encoding":"quantum","scope":{"pnodes":2,"vnodes":2,"values":3,"states":2,"msgs":1}}}}`, "unknown model encoding"},
		"unknown-field":    {`{"version":1,"model":{"kind":"mca-model","spec":{"encoding":"naive","scope":{"pnodes":2,"vnodes":2,"values":3,"states":2,"msgs":1},"extra":1}}}`, "unknown field"},
		"degenerate-scope": {`{"version":1,"model":{"kind":"mca-model","spec":{"encoding":"naive","scope":{"pnodes":0,"vnodes":0,"values":0,"states":0,"msgs":0}}}}`, "degenerate scope"},
		"unknown-kind":     {`{"version":1,"model":{"kind":"nobody-home","spec":{}}}`, "unknown model kind"},
		// Before the ceilings, a 150-byte document asked the naive builder
		// for 2^40 integer atoms, and a negative pool panicked it.
		"int-bitwidth-40":       {`{"version":1,"model":{"kind":"mca-model","spec":{"encoding":"naive","scope":{"pnodes":2,"vnodes":2,"values":3,"states":2,"msgs":1,"int_bitwidth":40}}}}`, "past the ceilings"},
		"negative-triples":      {`{"version":1,"model":{"kind":"mca-model","spec":{"encoding":"optimized","scope":{"pnodes":2,"vnodes":2,"values":3,"states":2,"msgs":1,"triples":-1}}}}`, "past the ceilings"},
		"assert-state-past-end": {`{"version":1,"model":{"kind":"mca-model","spec":{"encoding":"naive","scope":{"pnodes":2,"vnodes":2,"values":3,"states":2,"msgs":1},"assert_state":3}}}`, "out of range"},
		"negative-assert-state": {`{"version":1,"model":{"kind":"mca-model","spec":{"encoding":"naive","scope":{"pnodes":2,"vnodes":2,"values":3,"states":2,"msgs":1},"assert_state":-1}}}`, "negative assert state"},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := engine.DecodeScenario([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.rule) {
				t.Fatalf("DecodeScenario(%s) = %v, want an error naming %q", tc.doc, err, tc.rule)
			}
		})
	}
}
