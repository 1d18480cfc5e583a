package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/engine"
)

// decodeWorkUnitReference is the two-pass unit decoder that
// engine.DecodeWorkUnit replaced, kept as the fuzz oracle: the unit is
// read with its engine and scenario members captured raw, and each is
// then read again by its own standalone decoder.
func decodeWorkUnitReference(data []byte) (index int, eng engine.Engine, s engine.Scenario, err error) {
	var w struct {
		Version  int             `json:"version"`
		Index    int             `json:"index"`
		Engine   json.RawMessage `json:"engine"`
		Scenario json.RawMessage `json:"scenario"`
	}
	if err = engine.StrictUnmarshal(data, &w); err != nil {
		return 0, nil, engine.Scenario{}, fmt.Errorf("unit: %w", err)
	}
	if w.Version != engine.SchemaVersion {
		return 0, nil, engine.Scenario{}, fmt.Errorf("unit: unsupported schema version %d", w.Version)
	}
	if w.Index < 0 {
		return 0, nil, engine.Scenario{}, fmt.Errorf("unit: negative index %d", w.Index)
	}
	if eng, err = engine.DecodeEngineSpec(w.Engine); err != nil {
		return 0, nil, engine.Scenario{}, err
	}
	if s, err = engine.DecodeScenario(w.Scenario); err != nil {
		return 0, nil, engine.Scenario{}, err
	}
	return w.Index, eng, s, nil
}

// unitMembers are the member names of a work unit.
var unitMembers = []string{"version", "index", "engine", "scenario"}

// ambiguousMembers reports whether doc is an object that names a
// top-level member twice, or names one in another case. The reference
// keeps only the last copy of a repeated engine or scenario, where the
// one-pass decoder merges the copies (the codec's repeated-member rule),
// so the two are compared only on documents without either.
func ambiguousMembers(doc []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := tok.(string)
		for _, m := range unitMembers {
			if key != m && strings.EqualFold(key, m) {
				return true
			}
		}
		if seen[key] {
			return true
		}
		seen[key] = true
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return false
		}
	}
	return false
}
