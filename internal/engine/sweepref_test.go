package engine

import (
	"encoding/json"
	"fmt"
	"strings"
)

// sweepJSON is the sweep document as the reference reads it: the base
// and every variant's patch captured raw, for it to decode per cell.
type sweepJSON struct {
	Version int             `json:"version"`
	Name    string          `json:"name,omitempty"`
	Base    json.RawMessage `json:"base"`
	Axes    []sweepAxisJSON `json:"axes,omitempty"`
}

type sweepAxisJSON struct {
	Axis     string             `json:"axis"`
	Variants []sweepVariantJSON `json:"variants"`
}

type sweepVariantJSON struct {
	Name     string          `json:"name"`
	Scenario json.RawMessage `json:"scenario"`
}

// expandSweepReference is ExpandSweep as it stood before expansion
// decoded each distinct section once: every cell merges the base and
// its variants' patches as generic trees, marshals the merged tree and
// strict-decodes it back. It is kept, unchanged, as the reference
// implementation the differential and fuzz tests compare DecodeSweep
// against — cell names, EncodeScenario bytes and content addresses must
// agree wherever this accepts a document. It still accepts a null
// patch, which DecodeSweep rejects.
func expandSweepReference(data []byte) ([]Scenario, error) {
	var doc sweepJSON
	if err := StrictUnmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("engine: sweep: %w", err)
	}
	if doc.Version != SchemaVersion {
		return nil, fmt.Errorf("engine: sweep: unsupported schema version %d (want %d)", doc.Version, SchemaVersion)
	}
	if len(doc.Base) == 0 {
		return nil, fmt.Errorf("engine: sweep %q: missing base scenario", doc.Name)
	}
	// Validate the base on its own before expanding: a broken base
	// should fail once with a clear message, not N times per cell. The
	// base carries no version field; the document's version governs.
	var baseCheck scenarioJSON
	if err := StrictUnmarshal(doc.Base, &baseCheck); err != nil {
		return nil, fmt.Errorf("engine: sweep %q: base scenario: %w", doc.Name, err)
	}
	if baseCheck.Version != 0 {
		return nil, fmt.Errorf("engine: sweep %q: base scenario must not carry its own version (the sweep version governs)", doc.Name)
	}
	baseTree, err := decodeTree(doc.Base)
	if err != nil {
		return nil, fmt.Errorf("engine: sweep %q: base scenario: %w", doc.Name, err)
	}

	total := 1
	patchTrees := make([][]any, len(doc.Axes))
	for ai, ax := range doc.Axes {
		if ax.Axis == "" {
			return nil, fmt.Errorf("engine: sweep %q: axis without a name", doc.Name)
		}
		if len(ax.Variants) == 0 {
			return nil, fmt.Errorf("engine: sweep %q: axis %q has no variants", doc.Name, ax.Axis)
		}
		seen := map[string]bool{}
		patchTrees[ai] = make([]any, len(ax.Variants))
		for vi, v := range ax.Variants {
			if v.Name == "" {
				return nil, fmt.Errorf("engine: sweep %q: axis %q has an unnamed variant", doc.Name, ax.Axis)
			}
			if seen[v.Name] {
				return nil, fmt.Errorf("engine: sweep %q: axis %q has duplicate variant %q", doc.Name, ax.Axis, v.Name)
			}
			seen[v.Name] = true
			tree, err := validatePatchReference(v.Scenario)
			if err != nil {
				return nil, fmt.Errorf("engine: sweep %q: axis %q variant %q: %w", doc.Name, ax.Axis, v.Name, err)
			}
			patchTrees[ai][vi] = tree
		}
		if total > MaxSweepScenarios/len(ax.Variants) {
			return nil, fmt.Errorf("engine: sweep %q: grid exceeds %d scenarios", doc.Name, MaxSweepScenarios)
		}
		total *= len(ax.Variants)
	}

	baseName := baseCheck.Name
	if baseName == "" {
		baseName = doc.Name
	}

	scenarios := make([]Scenario, 0, total)
	pick := make([]int, len(doc.Axes)) // odometer over the axes
	for {
		tree := baseTree
		nameParts := []string{baseName}
		for ai, vi := range pick {
			tree = mergeTrees(tree, patchTrees[ai][vi])
			nameParts = append(nameParts, doc.Axes[ai].Variants[vi].Name)
		}
		cellName := strings.Join(nameParts, "/")
		merged, err := json.Marshal(tree)
		if err != nil {
			return nil, fmt.Errorf("engine: sweep %q cell %q: %w", doc.Name, cellName, err)
		}
		var w scenarioJSON
		if err := StrictUnmarshal(merged, &w); err != nil {
			return nil, fmt.Errorf("engine: sweep %q cell %q: %w", doc.Name, cellName, err)
		}
		w.Version = SchemaVersion
		w.Name = cellName
		s, err := scenarioFromWire(&w)
		if err != nil {
			return nil, fmt.Errorf("engine: sweep %q cell %q: %w", doc.Name, cellName, err)
		}
		scenarios = append(scenarios, s)

		// Advance the odometer, last axis fastest.
		i := len(pick) - 1
		for ; i >= 0; i-- {
			pick[i]++
			if pick[i] < len(doc.Axes[i].Variants) {
				break
			}
			pick[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return scenarios, nil
}

// validatePatchReference strict-checks one variant patch in isolation
// and returns its decoded tree for merging.
func validatePatchReference(raw json.RawMessage) (any, error) {
	if len(raw) == 0 {
		return map[string]any{}, nil
	}
	var check scenarioJSON
	if err := StrictUnmarshal(raw, &check); err != nil {
		return nil, err
	}
	if check.Version != 0 {
		return nil, fmt.Errorf("patch must not set version")
	}
	if check.Name != "" {
		return nil, fmt.Errorf("patch must not set name (cell names are generated)")
	}
	return decodeTree(raw)
}
