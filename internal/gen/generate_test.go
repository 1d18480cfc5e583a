package gen

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mca"
)

// Same (profile, seed, n): byte-identical corpus under the canonical
// codec, and the same corpus regardless of how many scenarios are
// generated around each index.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Profile{}, 42, 30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Profile{}, 42, 30)
	if err != nil {
		t.Fatal(err)
	}
	longer, err := Generate(Profile{}, 42, 60)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		ea, err := engine.EncodeScenario(&a[i])
		if err != nil {
			t.Fatalf("scenario %d not serializable: %v", i, err)
		}
		eb, _ := engine.EncodeScenario(&b[i])
		el, _ := engine.EncodeScenario(&longer[i])
		if !bytes.Equal(ea, eb) {
			t.Fatalf("scenario %d differs across identical calls:\n%s\n%s", i, ea, eb)
		}
		if !bytes.Equal(ea, el) {
			t.Fatalf("scenario %d depends on corpus length:\n%s\n%s", i, ea, el)
		}
	}
}

// Different seeds must produce different corpora (a sanity check that
// the seed actually reaches the streams).
func TestGenerateSeedMatters(t *testing.T) {
	a, _ := Generate(Profile{}, 1, 10)
	b, _ := Generate(Profile{}, 2, 10)
	same := 0
	for i := range a {
		// Names embed the seed; compare the content-relevant bytes.
		a[i].Name, b[i].Name = "", ""
		ea, _ := engine.EncodeScenario(&a[i])
		eb, _ := engine.EncodeScenario(&b[i])
		if bytes.Equal(ea, eb) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 generated identical corpora")
	}
}

// Every generated scenario is valid: agents construct, the graph covers
// the agents, fault references stay in range (the strict codec decoder
// re-checks all of this on the round trip).
func TestGenerateValidAndRoundTrips(t *testing.T) {
	scenarios, err := Generate(Profile{}, 7, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scenarios {
		if len(s.AgentSpecs) == 0 || s.Graph == nil {
			t.Fatalf("scenario %d missing agents or graph", i)
		}
		if s.Graph.N() != len(s.AgentSpecs) {
			t.Fatalf("scenario %d: %d graph nodes for %d agents", i, s.Graph.N(), len(s.AgentSpecs))
		}
		for _, cfg := range s.AgentSpecs {
			if _, err := mca.NewAgent(cfg); err != nil {
				t.Fatalf("scenario %d: %v", i, err)
			}
		}
		data, err := engine.EncodeScenario(&s)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		back, err := engine.DecodeScenario(data)
		if err != nil {
			t.Fatalf("scenario %d does not decode: %v\n%s", i, err, data)
		}
		again, err := engine.EncodeScenario(&back)
		if err != nil {
			t.Fatalf("scenario %d re-encode: %v", i, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("scenario %d round trip not canonical:\n%s\n%s", i, data, again)
		}
	}
}

// The default profile actually exercises its axes: over a modest corpus
// every topology shape appears, some scenarios carry faults, and some
// carry relational models.
func TestGenerateCoversProfileAxes(t *testing.T) {
	scenarios, err := Generate(DefaultProfile(), 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	faults, models, duplicates := 0, 0, 0
	agentCounts := map[int]bool{}
	for _, s := range scenarios {
		agentCounts[len(s.AgentSpecs)] = true
		if !s.Faults.None() {
			faults++
		}
		if s.Model != nil {
			models++
		}
		if s.Explore.DuplicateDeliveries {
			duplicates++
		}
	}
	if faults == 0 || models == 0 || duplicates == 0 {
		t.Fatalf("axes unexercised: faults=%d models=%d duplicates=%d", faults, models, duplicates)
	}
	for n := 2; n <= 4; n++ {
		if !agentCounts[n] {
			t.Fatalf("agent count %d never generated", n)
		}
	}
}

// Profile JSON: round trip and strictness.
func TestProfileCodec(t *testing.T) {
	p := DefaultProfile()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Fatalf("profile round trip:\n%+v\n%+v", p, back)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("profile round trip:\n%s\n%s", data, again)
	}
	if _, err := DecodeProfile([]byte(`{"bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeProfile([]byte(`{"agents":{"min":3,"max":2}}`)); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := DecodeProfile([]byte(`{"topologies":["moebius"]}`)); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := DecodeProfile([]byte(`{"queue_depths":[-5]}`)); err == nil {
		t.Fatal("queue depth below -1 accepted")
	}
	// Upper bounds guard the generator: a profile file reaches Generate
	// as written.
	if _, err := DecodeProfile([]byte(`{"agents":{"min":100000,"max":100000}}`)); err == nil {
		t.Fatal("absurd agent count accepted")
	}
	if _, err := DecodeProfile([]byte(`{"model_states":{"min":60,"max":60}}`)); err == nil {
		t.Fatal("absurd model scope accepted")
	}
	if _, err := DecodeProfile([]byte(`{"queue_depths":[-1,0,3]}`)); err != nil {
		t.Fatalf("legal queue depths rejected: %v", err)
	}
	// A partial profile composes with the defaults.
	partial, err := DecodeProfile([]byte(`{"agents":{"min":2,"max":2},"fault_prob":1}`))
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := Generate(partial, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scenarios {
		if len(s.AgentSpecs) != 2 {
			t.Fatalf("scenario %d: agents=%d, want pinned 2", i, len(s.AgentSpecs))
		}
	}
}

// An empty document means the default profile.
func TestDecodeProfileEmpty(t *testing.T) {
	p, err := DecodeProfile([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(p, 1, 5); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	if _, err := Generate(Profile{}, 1, -1); err == nil {
		t.Fatal("negative count accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, p := range map[string]Profile{
		"unknown-utility": {Utilities: []string{"nope"}},
		// Built in Go only (JSON has no NaN or Inf): a NaN passed the
		// range tests written as p < 0 || p > 1.
		"nan-release-prob":   {ReleaseProb: nan},
		"inf-drop-max":       {DropMax: inf},
		"nan-edge-prob-min":  {EdgeProb: FloatRange{Min: nan, Max: 0.5}},
		"inf-edge-prob-max":  {EdgeProb: FloatRange{Min: 0.1, Max: inf}},
		"nan-edge-prob-both": {EdgeProb: FloatRange{Min: nan, Max: nan}},
	} {
		if _, err := Generate(p, 1, 1); err == nil || !strings.Contains(err.Error(), "gen: profile") {
			t.Errorf("%s: Generate error = %v, want the profile rule", name, err)
		}
	}
}

// FuzzDecodeProfile: a profile arrives as an mcafuzz -profile file.
// Each input is an error or a profile that validates, and the scenarios
// generated from one are data — each passes Scenario.Validate and
// encodes: the generator half of "valid ⇒ encodable".
func FuzzDecodeProfile(f *testing.F) {
	def, err := json.Marshal(DefaultProfile())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"agents":{"min":2,"max":5},"topologies":["random"],"edge_prob":{"min":0,"max":1},"utilities":["escalating-attack"],"rebid_modes":["always"],"fault_prob":1,"drop_max":1,"dup_max":1,"reorder_max":3,"partition_prob":1,"heal_after_max":7,"model_prob":1,"model_encodings":["naive"],"model_states":{"min":5,"max":5},"model_msgs":{"min":5,"max":5}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProfile(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoded profile does not validate: %v", err)
		}
		scenarios, err := Generate(p, 1, 3)
		if err != nil {
			t.Fatalf("valid profile does not generate: %v", err)
		}
		for i := range scenarios {
			s := &scenarios[i]
			if err := s.Validate(); err != nil {
				t.Fatalf("generated scenario %d is ill-formed: %v", i, err)
			}
			if _, err := engine.EncodeScenario(s); err != nil {
				t.Fatalf("generated scenario %d does not encode: %v", i, err)
			}
		}
	})
}
