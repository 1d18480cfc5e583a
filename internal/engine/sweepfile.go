package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// A sweep file describes a parameter grid of scenarios as data: one
// base scenario plus a list of axes, each axis a list of named
// variants. Expansion takes the cartesian product of the axes (sizes ×
// faults × modes × ...) and applies each combination of variants to the
// base, producing one scenario per grid cell.
//
// A variant's "scenario" member is a partial scenario document applied
// as a JSON merge patch: objects merge field-wise into the base
// (setting "explore": {"max_states": 1000} keeps the base's other
// explore fields), arrays and scalars replace the base value wholesale
// (setting "agents" replaces the whole agent list), and an explicit
// null deletes the base value (setting "faults": null removes the
// base's fault model). Variants are applied in axis order, later axes
// over earlier ones. The patch itself must be a JSON object.
//
// Cell scenarios are named deterministically as
// "<base>/<variant>/<variant>/..." (the sweep name stands in when the
// base scenario is unnamed); any "name" or "version" inside a variant
// patch is rejected.
//
// The merge is key-wise at the top level, so a cell's value for one
// section (agents, graph, explore, faults, model, solver) depends only
// on the base and on the picks of the axes whose variants mention that
// section. Expansion therefore resolves, converts and canonically
// encodes every distinct section value once, keyed by those picks, and
// assembles the cells from the memoised values: a 600-cell grid over
// 200 agent lists and 3 fault models decodes 200 agent lists and 3
// fault models, not 600 scenarios.

// MaxSweepScenarios caps a sweep expansion; a grid larger than this is
// almost certainly a mistake and would stall the service.
const MaxSweepScenarios = 100000

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

// The sections of a scenario document, in the canonical encoding's
// (scenarioJSON's) field order.
const (
	secAgents = iota
	secGraph
	secExplore
	secFaults
	secModel
	secSolver
	numSections
)

// section returns a pointer to the wire field of one section, for the
// JSON decoder to fill.
func (w *scenarioJSON) section(sec int) any {
	switch sec {
	case secAgents:
		return &w.Agents
	case secGraph:
		return &w.Graph
	case secExplore:
		return &w.Explore
	case secFaults:
		return &w.Faults
	case secModel:
		return &w.Model
	default:
		return &w.Solver
	}
}

// patchJSON splits a scenario-shaped object — the base, or one variant
// patch — into its members without decoding them.
type patchJSON struct {
	Version json.RawMessage `json:"version"`
	Name    json.RawMessage `json:"name"`
	Agents  json.RawMessage `json:"agents"`
	Graph   json.RawMessage `json:"graph"`
	Explore json.RawMessage `json:"explore"`
	Faults  json.RawMessage `json:"faults"`
	Model   json.RawMessage `json:"model"`
	Solver  json.RawMessage `json:"solver"`
}

// sweepSource is the base scenario or one variant patch: each section's
// raw member, its strict typed decode — the only decode a section that
// no other source merges into ever gets — and, for object sections, the
// generic tree, decoded the first time a merge needs it.
type sweepSource struct {
	raw   [numSections]json.RawMessage
	wire  scenarioJSON
	trees [numSections]any
}

// decodeSource splits and strictly decodes the base or a patch in
// isolation, so unknown fields and type mismatches are attributed to
// their source. wire.Version and wire.Name are decoded for the caller
// to judge.
func decodeSource(raw []byte) (*sweepSource, error) {
	var p patchJSON
	if err := StrictUnmarshal(raw, &p); err != nil {
		return nil, err
	}
	src := &sweepSource{raw: [numSections]json.RawMessage{p.Agents, p.Graph, p.Explore, p.Faults, p.Model, p.Solver}}
	decode := func(raw json.RawMessage, into any) error {
		if len(raw) == 0 {
			return nil
		}
		return StrictUnmarshal(raw, into)
	}
	if err := decode(p.Version, &src.wire.Version); err != nil {
		return nil, err
	}
	if err := decode(p.Name, &src.wire.Name); err != nil {
		return nil, err
	}
	for sec, raw := range src.raw {
		if err := decode(raw, src.wire.section(sec)); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// mentions reports whether the source has the section as a member at
// all, null included; set, whether it gives the section a value.
func (src *sweepSource) mentions(sec int) bool { return len(src.raw[sec]) > 0 }
func (src *sweepSource) set(sec int) bool      { return src.mentions(sec) && src.raw[sec][0] != 'n' }

func (src *sweepSource) tree(sec int) (any, error) {
	if src.trees[sec] == nil {
		t, err := decodeTree(src.raw[sec])
		if err != nil {
			return nil, err
		}
		src.trees[sec] = t
	}
	return src.trees[sec], nil
}

// sectionValue is one distinct resolved value of one section: the
// decoded form as a Scenario holding that section only, and its
// canonical fragment (`,"agents":[...]`, empty when the encoding omits
// the section). Cells share s by reference except the model, which
// every cell after the first decodes afresh from model.
type sectionValue struct {
	s     Scenario
	model *modelJSON
	frag  []byte
}

// sweepExpansion is the state of one DecodeSweep.
type sweepExpansion struct {
	base    *sweepSource
	patches [][]*sweepSource // [axis][variant]
	// touch lists, per section, the axes with a variant that mentions
	// it: the only picks its value depends on.
	touch [numSections][]int
	// memo holds the section's values, indexed by the touching axes'
	// picks in mixed radix.
	memo [numSections][]*sectionValue
}

// resolve folds the base's and the picked variants' values of one
// section, in axis order, into the section's final wire value: the
// returned document's field for sec, nil there if the section is absent.
func (x *sweepExpansion) resolve(sec int, pick []int) (*scenarioJSON, error) {
	// Three states: absent (cur and merged nil), one source's value
	// untouched (cur), or a merge of several objects (merged).
	var cur *sweepSource
	var merged any
	if x.base.set(sec) {
		cur = x.base
	}
	for _, ai := range x.touch[sec] {
		p := x.patches[ai][pick[ai]]
		switch {
		case !p.mentions(sec):
		case !p.set(sec): // null deletes
			cur, merged = nil, nil
		case p.raw[sec][0] != '{' || (cur == nil && merged == nil):
			// An array replaces wholesale; an object with nothing under it
			// is the value as written. Either way the source's typed decode
			// is already final.
			cur, merged = p, nil
		default:
			if merged == nil {
				t, err := cur.tree(sec)
				if err != nil {
					return nil, err
				}
				merged, cur = t, nil
			}
			t, err := p.tree(sec)
			if err != nil {
				return nil, err
			}
			merged = mergeTrees(merged, t)
		}
	}
	if merged == nil {
		if cur == nil {
			return new(scenarioJSON), nil // absent
		}
		return &cur.wire, nil
	}
	data, err := json.Marshal(merged)
	if err != nil {
		return nil, err
	}
	w := new(scenarioJSON)
	if err := StrictUnmarshal(data, w.section(sec)); err != nil {
		return nil, err
	}
	return w, nil
}

// value returns the section's memoised value for the picks, resolving,
// converting, validating (the rules that read this section alone) and
// encoding it on first use. name is the cell asking: it labels the
// errors, so a bad value is reported against the first cell that uses
// it.
func (x *sweepExpansion) value(sec int, pick []int, name string) (*sectionValue, error) {
	idx := 0
	for _, ai := range x.touch[sec] {
		idx = idx*len(x.patches[ai]) + pick[ai]
	}
	if v := x.memo[sec][idx]; v != nil {
		return v, nil
	}
	w, err := x.resolve(sec, pick)
	if err != nil {
		return nil, err
	}
	v := new(sectionValue)
	switch sec {
	case secAgents:
		v.s.AgentSpecs, err = agentsFromWire(name, w.Agents)
	case secGraph:
		v.s.Graph, err = graphFromWire(name, w.Graph)
	case secExplore:
		v.s.Explore = exploreFromWire(w.Explore)
	case secFaults:
		v.s.Faults = faultsFromWire(w.Faults)
	case secModel:
		v.model = w.Model
		v.s.Model, err = modelFromWire(name, w.Model)
	case secSolver:
		v.s.Solver = solverFromWire(w.Solver)
	}
	if err == nil {
		err = v.s.validateSections(name)
	}
	if err == nil {
		// A validated value encodes; were it ever not to, the cell would
		// fail here rather than run unaddressed.
		v.frag, err = canonicalFragment(&v.s)
	}
	if err != nil {
		return nil, err
	}
	x.memo[sec][idx] = v
	return v, nil
}

// cell assembles one grid cell from the memoised section values.
func (x *sweepExpansion) cell(name string, pick []int) (sweepCell, error) {
	var vals [numSections]*sectionValue
	size := len(canonicalHead) + 1
	for sec := range vals {
		v, err := x.value(sec, pick, name)
		if err != nil {
			return sweepCell{}, err
		}
		vals[sec] = v
		size += len(v.frag)
	}
	c := sweepCell{scenario: Scenario{
		Name:       name,
		AgentSpecs: vals[secAgents].s.AgentSpecs,
		Graph:      vals[secGraph].s.Graph,
		Explore:    vals[secExplore].s.Explore,
		Faults:     vals[secFaults].s.Faults,
		Solver:     vals[secSolver].s.Solver,
	}}
	// Models are not shared: a decode builds fresh relations, and engines
	// may keep per-model state. The value's own instance — decoded to
	// validate and encode it — goes to its first cell.
	m := vals[secModel]
	if c.scenario.Model, m.s.Model = m.s.Model, nil; c.scenario.Model == nil {
		var err error
		if c.scenario.Model, err = modelFromWire(name, m.model); err != nil {
			return sweepCell{}, err
		}
	}
	// A grid cell is a scenario, the base need not be: the rules that
	// read two sections are checked here, once per cell.
	if err := c.scenario.validateCross(); err != nil {
		return sweepCell{}, err
	}
	c.canonical = append(make([]byte, 0, size), canonicalHead...)
	for _, v := range vals {
		c.canonical = append(c.canonical, v.frag...)
	}
	c.canonical = append(c.canonical, '}')
	return c, nil
}

// canonicalHead opens every canonical scenario document; with the name
// blanked, what follows is one fragment per section, in order.
var canonicalHead = fmt.Sprintf(`{"version":%d`, SchemaVersion)

// canonicalFragment is the canonical encoding of a scenario that holds
// one section, minus the document frame: what that section contributes
// to any unnamed scenario's encoding. It is cut out of EncodeScenario's
// own output, so there is no second encoder to keep in step.
func canonicalFragment(s *Scenario) ([]byte, error) {
	data, err := EncodeScenario(s)
	if err != nil {
		return nil, err
	}
	return data[len(canonicalHead) : len(data)-1], nil
}

// Sweep is a decoded sweep document: the grid's scenarios in
// deterministic order (the last axis varies fastest), each carried with
// the canonical encoding of its unnamed form — the bytes its content
// address hashes — as expansion assembled it. Runner.StreamSweep
// addresses the cells from those bytes instead of re-encoding scenarios
// it was just handed the encoding of. The bytes ride beside the
// scenarios, not inside them: a Scenario is a value callers copy and
// vary, and a copy that kept a stale encoding would be cached under the
// wrong address. A Sweep is immutable; Scenarios hands out copies.
type Sweep struct {
	cells []sweepCell
}

type sweepCell struct {
	scenario Scenario
	// canonical is encodeUnnamed(&scenario).
	canonical []byte
}

// Len returns the number of grid cells.
func (sw *Sweep) Len() int { return len(sw.cells) }

// Scenarios returns a copy of the grid's scenarios, in grid order.
// Cells whose picks agree on the axes that set a section share that
// section's decoded data (agent specs, graph, fault maps), which engines
// only read; models are per cell.
func (sw *Sweep) Scenarios() []Scenario {
	out := make([]Scenario, len(sw.cells))
	for i := range sw.cells {
		out[i] = sw.cells[i].scenario
	}
	return out
}

// ExpandSweep parses a sweep document and expands its parameter grid
// into the full scenario set: DecodeSweep for callers that want only
// the scenarios.
func ExpandSweep(data []byte) ([]Scenario, error) {
	sw, err := DecodeSweep(data)
	if err != nil {
		return nil, err
	}
	return sw.Scenarios(), nil
}

// DecodeSweep parses a sweep document and expands its parameter grid.
// The decode is strict, like DecodeScenario, and complete: every cell
// is resolved and validated before it returns, so an invalid cell is an
// error naming the first cell that uses the bad value, never a grid cut
// short.
func DecodeSweep(data []byte) (*Sweep, error) {
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
	// The base is validated on its own before expanding: a broken base
	// fails once with a clear message, not once per cell. It carries no
	// version field; the document's version governs.
	base, err := decodeSource(doc.Base)
	if err != nil {
		return nil, fmt.Errorf("engine: sweep %q: base scenario: %w", doc.Name, err)
	}
	if base.wire.Version != 0 {
		return nil, fmt.Errorf("engine: sweep %q: base scenario must not carry its own version (the sweep version governs)", doc.Name)
	}

	x := &sweepExpansion{base: base, patches: make([][]*sweepSource, len(doc.Axes))}
	total := 1
	for ai, ax := range doc.Axes {
		if ax.Axis == "" {
			return nil, fmt.Errorf("engine: sweep %q: axis without a name", doc.Name)
		}
		if len(ax.Variants) == 0 {
			return nil, fmt.Errorf("engine: sweep %q: axis %q has no variants", doc.Name, ax.Axis)
		}
		seen := map[string]bool{}
		x.patches[ai] = make([]*sweepSource, len(ax.Variants))
		for vi, v := range ax.Variants {
			if v.Name == "" {
				return nil, fmt.Errorf("engine: sweep %q: axis %q has an unnamed variant", doc.Name, ax.Axis)
			}
			if seen[v.Name] {
				return nil, fmt.Errorf("engine: sweep %q: axis %q has duplicate variant %q", doc.Name, ax.Axis, v.Name)
			}
			seen[v.Name] = true
			if x.patches[ai][vi], err = decodePatch(v.Scenario); err != nil {
				return nil, fmt.Errorf("engine: sweep %q: axis %q variant %q: %w", doc.Name, ax.Axis, v.Name, err)
			}
		}
		if total > MaxSweepScenarios/len(ax.Variants) {
			return nil, fmt.Errorf("engine: sweep %q: grid exceeds %d scenarios", doc.Name, MaxSweepScenarios)
		}
		total *= len(ax.Variants)
	}
	for sec := 0; sec < numSections; sec++ {
		distinct := 1
		for ai, variants := range x.patches {
			for _, p := range variants {
				if p.mentions(sec) {
					x.touch[sec] = append(x.touch[sec], ai)
					distinct *= len(variants)
					break
				}
			}
		}
		x.memo[sec] = make([]*sectionValue, distinct)
	}

	baseName := base.wire.Name
	if baseName == "" {
		baseName = doc.Name
	}
	sw := &Sweep{cells: make([]sweepCell, 0, total)}
	pick := make([]int, len(doc.Axes)) // odometer over the axes
	nameParts := make([]string, 1+len(pick))
	nameParts[0] = baseName
	for {
		for ai, vi := range pick {
			nameParts[1+ai] = doc.Axes[ai].Variants[vi].Name
		}
		cellName := strings.Join(nameParts, "/")
		c, err := x.cell(cellName, pick)
		if err != nil {
			return nil, fmt.Errorf("engine: sweep %q cell %q: %w", doc.Name, cellName, err)
		}
		sw.cells = append(sw.cells, c)

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
	return sw, nil
}

// decodePatch decodes one variant patch. An absent patch is the empty
// one; anything but an object is rejected — null in particular, which
// strict-decodes into a struct without complaint and, merged as a
// patch, would replace the whole base with nothing.
func decodePatch(raw json.RawMessage) (*sweepSource, error) {
	if len(raw) == 0 {
		return new(sweepSource), nil
	}
	if raw[0] != '{' {
		return nil, errors.New("patch must be a JSON object")
	}
	src, err := decodeSource(raw)
	if err != nil {
		return nil, err
	}
	if src.wire.Version != 0 {
		return nil, errors.New("patch must not set version")
	}
	if src.wire.Name != "" {
		return nil, errors.New("patch must not set name (cell names are generated)")
	}
	return src, nil
}

// decodeTree parses JSON into the generic map/slice representation used
// for merging, with json.Number preserving integer precision and the
// original numeric formatting.
func decodeTree(raw []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return tree, nil
}

// mergeTrees applies patch to base, JSON-merge-patch style: two objects
// merge key-wise (a null patch value deletes the key), anything else
// replaces base outright. Inputs are never mutated — merged levels are
// fresh maps — so one source's tree is safely shared across every value
// it is merged into.
func mergeTrees(base, patch any) any {
	bm, bok := base.(map[string]any)
	pm, pok := patch.(map[string]any)
	if !bok || !pok {
		return patch
	}
	out := make(map[string]any, len(bm)+len(pm))
	for k, v := range bm {
		out[k] = v
	}
	for k, v := range pm {
		if v == nil {
			delete(out, k)
			continue
		}
		if cur, ok := out[k]; ok {
			out[k] = mergeTrees(cur, v)
		} else {
			out[k] = v
		}
	}
	return out
}
