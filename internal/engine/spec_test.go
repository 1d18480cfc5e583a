package engine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

// specEngines are the engine values the spec tests encode: every kind,
// with and without its fields.
var specEngines = []Engine{
	nil,
	Auto{},
	Auto{Workers: 8},
	Explicit{},
	Explicit{Workers: 4},
	Explicit{Workers: -1},
	Explicit{Workers: MaxWorkers + 1},
	Simulation{},
	Simulation{Runs: 32, Seed: 7, BudgetFactor: 12},
	Simulation{MaxDeliveries: 500},
	SAT{},
	SAT{Workers: 3},
	SAT{Workers: -1},
}

// badSpecDocs are spec documents DecodeEngineSpec must refuse.
var badSpecDocs = map[string]string{
	"not-json":        `{`,
	"no-version":      `{"kind":"auto"}`,
	"wrong-version":   `{"version":9,"kind":"auto"}`,
	"unknown-kind":    `{"version":1,"kind":"quantum"}`,
	"unknown-field":   `{"version":1,"kind":"auto","threads":2}`,
	"auto-with-runs":  `{"version":1,"kind":"auto","runs":4}`,
	"explicit-cube":   `{"version":1,"kind":"explicit","cube":2}`,
	"sim-workers":     `{"version":1,"kind":"simulation","workers":2}`,
	"sat-with-budget": `{"version":1,"kind":"sat","budget_factor":2}`,
	"sat-cube":        `{"version":1,"kind":"sat","cube":3}`,
}

// TestEngineSpecRoundTrip pins the spec codec: every serializable
// engine value survives an encode/decode round trip as the engine its
// content address names, so a fleet worker rebuilds the coordinator's
// engine verbatim. An explicit spec drops Workers, which runs nothing,
// unless it is past MaxWorkers and so makes the result an error.
func TestEngineSpecRoundTrip(t *testing.T) {
	for _, e := range specEngines {
		data, err := EncodeEngineSpec(e)
		if err != nil {
			t.Fatalf("encode %#v: %v", e, err)
		}
		got, err := DecodeEngineSpec(data)
		if err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
		want := e
		if want == nil {
			want = Auto{}
		}
		if ex, ok := want.(Explicit); ok {
			want = ex.addressed()
		}
		if got != want {
			t.Fatalf("round trip %s: got %#v want %#v", data, got, want)
		}
		// Canonical: re-encoding the decoded value is byte-identical.
		again, err := EncodeEngineSpec(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) {
			t.Fatalf("re-encode differs: %s vs %s", again, data)
		}
	}
}

// TestEngineSpecPreservesCacheKey is the fleet's cache-coherence pin: a
// spec round trip must land on the same content address, or workers
// would silently miss entries the coordinator wrote.
func TestEngineSpecPreservesCacheKey(t *testing.T) {
	s := Scenario{
		Name:       "spec-key",
		AgentSpecs: specs(2, 2, submodPolicy(2)),
		Graph:      graph.Complete(2),
	}
	for _, e := range []Engine{Auto{}, Explicit{Workers: 2}, Simulation{Runs: 8, Seed: 3}, SAT{}} {
		data, err := EncodeEngineSpec(e)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeEngineSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		k1, err := CacheKey(&s, e)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := CacheKey(&s, decoded)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("%s: cache key changed across spec round trip", data)
		}
	}
}

func TestEngineSpecRejectsBadDocuments(t *testing.T) {
	for name, doc := range badSpecDocs {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeEngineSpec([]byte(doc)); err == nil {
				t.Fatalf("decoded %s", doc)
			}
		})
	}
	type custom struct{ Engine }
	if _, err := EncodeEngineSpec(custom{}); err == nil || !strings.Contains(err.Error(), "serializable") {
		t.Fatalf("custom engine encoded: %v", err)
	}
}

// FuzzDecodeEngineSpec: a spec document is network input on a fleet
// worker. It either fails to decode, or its canonical re-encoding
// decodes to the same engine; it never panics.
func FuzzDecodeEngineSpec(f *testing.F) {
	for _, e := range specEngines {
		data, err := EncodeEngineSpec(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, doc := range badSpecDocs {
		f.Add([]byte(doc))
	}
	for _, doc := range []string{
		`{"version":1,"KIND":"auto","Workers":2}`,
		"{\"version\":1,\"\xe2\x84\xaaind\":\"sat\"}",
		`{"version":1,"kind":"simulation","runs":4,"runs":null,"seed":-0}`,
		`{"version":1,"kind":"simulation","runs":1e2}`,
		`{"version":1,"kind":"simulation","runs":1.0}`,
		`{"version":1,"kind":"simulation","seed":9223372036854775808}`,
		"{\"version\":1,\"kind\":\"auto\"}\f",
		"{\"version\":1,\"kind\":\"au\xffto\"}",
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkSpecWire(t, doc)
		e, err := DecodeEngineSpec(doc)
		var want EngineSpec
		refErr := StrictUnmarshal(doc, &want)
		if refErr == nil && want.Version != SchemaVersion {
			refErr = errors.New("version")
		}
		var refEng Engine
		if refErr == nil {
			refEng, refErr = want.Engine()
		}
		if (err == nil) != (refErr == nil) || err == nil && e != refEng {
			t.Fatalf("DecodeEngineSpec reads %#v (%v), the reflective decode %#v (%v)", e, err, refEng, refErr)
		}
		if err != nil {
			return
		}
		data, err := EncodeEngineSpec(e)
		if err != nil {
			t.Fatalf("decoded %#v does not encode: %v", e, err)
		}
		if again, err := DecodeEngineSpec(data); err != nil || again != e {
			t.Fatalf("re-encoding %s decodes to %#v (%v), want %#v", data, again, err, e)
		}
	})
}
