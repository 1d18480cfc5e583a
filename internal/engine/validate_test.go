package engine_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/netsim"
)

// customUtility is a utility the codec has no kind for.
type customUtility struct{ mca.FlatUtility }

func (customUtility) Name() string { return "custom" }

// TestValidScenariosAreData pins the contract that makes a scenario
// data: Validate() == nil ⇒ EncodeScenario succeeds ⇒ DecodeScenario of
// the bytes re-encodes them exactly. It runs over a generated corpus and
// over Go-built values at the edges of each rule, and holds each
// Go-built value that breaks a rule — the NaN, Inf and out-of-range
// floats JSON cannot carry, a custom resolver or utility, a model no
// builder made — to an error naming that rule.
func TestValidScenariosAreData(t *testing.T) {
	corpus, err := gen.Generate(gen.DefaultProfile(), 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	pol := mca.Policy{Target: 2, Utility: mca.SubmodularResidual{}, Rebid: mca.RebidOnChange}
	base := engine.Scenario{Name: "edge", Graph: graph.Line(3)}
	for i := 0; i < 3; i++ {
		base.AgentSpecs = append(base.AgentSpecs, mca.Config{ID: mca.AgentID(i), Items: 2, Base: []int64{10, int64(5 + i)}, Policy: pol})
	}
	model, err := mcamodel.BuildNaive(mcamodel.Scope{PNodes: 2, VNodes: 1, Values: 2, States: 2, Msgs: 1, IntBitwidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	edge := func(mutate func(*engine.Scenario)) engine.Scenario {
		s := base
		s.AgentSpecs = append([]mca.Config(nil), base.AgentSpecs...)
		s.Graph = base.Graph.Clone()
		mutate(&s)
		return s
	}
	weight := func(w float64) func(*engine.Scenario) {
		return func(s *engine.Scenario) { s.Graph.AddWeightedEdge(0, 1, w) }
	}

	valid := map[string]engine.Scenario{
		"drop-1":          edge(func(s *engine.Scenario) { s.Faults.Drop = 1 }),
		"duplicate-1":     edge(func(s *engine.Scenario) { s.Faults.Duplicate = 1 }),
		"drop-edge-0":     edge(func(s *engine.Scenario) { s.Faults.DropEdge = map[netsim.Edge]float64{{From: 0, To: 1}: 0} }),
		"polarity-freq-1": edge(func(s *engine.Scenario) { s.Solver.RandomPolarityFreq = 1 }),
		"weight-0":        edge(weight(0)),
		"weight-negative": edge(weight(-2.5)),
		"weight-max":      edge(weight(math.MaxFloat64)),
		"model":           {Name: "model", Model: model},
	}
	for i := range corpus {
		valid[corpus[i].Name] = corpus[i]
	}
	for name, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		first, err := engine.EncodeScenario(&s)
		if err != nil {
			t.Errorf("%s validates but does not encode: %v", name, err)
			continue
		}
		back, err := engine.DecodeScenario(first)
		if err != nil {
			t.Errorf("%s: encoding does not decode: %v\n%s", name, err, first)
			continue
		}
		if second, err := engine.EncodeScenario(&back); err != nil || !bytes.Equal(first, second) {
			t.Errorf("%s: round trip moved the bytes (%v):\n%s\n%s", name, err, first, second)
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	for name, tc := range map[string]struct {
		s    engine.Scenario
		rule string
	}{
		"drop-nan":             {edge(func(s *engine.Scenario) { s.Faults.Drop = nan }), "drop probability"},
		"drop-inf":             {edge(func(s *engine.Scenario) { s.Faults.Drop = inf }), "drop probability"},
		"drop-above-1":         {edge(func(s *engine.Scenario) { s.Faults.Drop = 1.5 }), "drop probability"},
		"duplicate-nan":        {edge(func(s *engine.Scenario) { s.Faults.Duplicate = nan }), "duplicate probability"},
		"duplicate-negative":   {edge(func(s *engine.Scenario) { s.Faults.Duplicate = -inf }), "duplicate probability"},
		"drop-edge-nan":        {edge(func(s *engine.Scenario) { s.Faults.DropEdge = map[netsim.Edge]float64{{From: 0, To: 1}: nan} }), "drop_edge {0,1} probability"},
		"polarity-freq-nan":    {edge(func(s *engine.Scenario) { s.Solver.RandomPolarityFreq = nan }), "random_polarity_freq"},
		"polarity-freq-above":  {edge(func(s *engine.Scenario) { s.Solver.RandomPolarityFreq = 1.01 }), "random_polarity_freq"},
		"weight-nan":           {edge(weight(nan)), "weight NaN is not finite"},
		"weight-negative-inf":  {edge(weight(-inf)), "weight -Inf is not finite"},
		"custom-resolver":      {edge(func(s *engine.Scenario) { s.AgentSpecs[1].Resolver = mca.MaxMergeResolve }), "agent 1: custom resolver"},
		"custom-utility":       {edge(func(s *engine.Scenario) { s.AgentSpecs[2].Policy.Utility = customUtility{} }), "agent 2: custom utility"},
		"model-of-no-builder":  {engine.Scenario{Model: &mcamodel.Encoding{Name: "hand-made", Scope: model.Scope}}, `encoding "hand-made" is not buildable`},
		"drop-nan-in-a-corpus": {func() engine.Scenario { s := corpus[0]; s.Faults.Drop = nan; return s }(), "drop probability"},
	} {
		if err := tc.s.Validate(); err == nil || !strings.Contains(err.Error(), tc.rule) {
			t.Errorf("%s: Validate = %v, want an error naming %q", name, err, tc.rule)
		}
	}
}
