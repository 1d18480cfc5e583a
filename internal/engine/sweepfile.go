package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
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
//
// The document is read in one strict pass. The base and each variant's
// patch (a source) decode themselves during it, each section straight
// into its typed wire value, so a section's bytes are decoded once. A
// source reads its members as DecodeScenario reads a document: names
// match ignoring case, and a member given twice decodes over the
// earlier copy. That typed value is the section's final value unless
// an object is patched onto an object. Such a merge works on generic
// trees split out of each source's bytes: each source contributes its
// last member of the name, as written, and members inside the section
// merge by exact name before the merged tree is strict-decoded.

// MaxSweepScenarios caps a sweep expansion; a grid larger than this is
// almost certainly a mistake and would stall the service.
const MaxSweepScenarios = 100000

// sweepFileJSON is a sweep document; its sources decode themselves
// (sweepSource.UnmarshalJSON).
type sweepFileJSON struct {
	Version int         `json:"version"`
	Name    string      `json:"name,omitempty"`
	Base    sweepSource `json:"base"`
	Axes    []axisJSON  `json:"axes,omitempty"`
}

type axisJSON struct {
	Axis     string        `json:"axis"`
	Variants []variantJSON `json:"variants"`
}

type variantJSON struct {
	Name     string      `json:"name"`
	Scenario sweepSource `json:"scenario"`
}

// The sections of a scenario document, in the canonical encoding's
// (scenarioJSON's) field order. Agents is the one array; every other
// section is an object.
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

// sweepSource is the base scenario or one variant patch, decoded
// strictly and once into its typed wire value — the only decode a
// section that no other source merges into ever gets — with whether
// each section was absent, null or set.
type sweepSource struct {
	// opens is the first byte of the source's JSON value, 0 when the
	// member is absent.
	opens     byte
	err       error // reported by DecodeSweep under the source's name
	wire      scenarioJSON
	null, set [numSections]bool
	// raw is the source's bytes, kept only when it sets an object
	// section, for tree to split if a merge needs it.
	raw   []byte
	trees *[numSections]any
}

// sourceJSON is a source as its strict decode sees it. Each section
// field is pointed, before the decode, at the source's own nil value: a
// member written null sets the field itself to nil, a value is decoded
// through it, and an absent member leaves both alone. A member given
// twice decodes the second copy over the first, as in DecodeScenario.
type sourceJSON struct {
	Version int           `json:"version"`
	Name    string        `json:"name"`
	Agents  *[]agentJSON  `json:"agents"`
	Graph   **graphJSON   `json:"graph"`
	Explore **exploreJSON `json:"explore"`
	Faults  **faultsJSON  `json:"faults"`
	Model   **modelJSON   `json:"model"`
	Solver  **solverJSON  `json:"solver"`
}

// UnmarshalJSON decodes the source while the document around it is
// decoded. It strict-decodes its own bytes, because the outer decoder's
// DisallowUnknownFields does not reach a nested UnmarshalJSON, and it
// keeps its error instead of returning it, because the outer decoder
// would report that error without saying which source it came from.
// A source given twice is read from its last copy.
func (src *sweepSource) UnmarshalJSON(data []byte) error {
	*src = sweepSource{opens: data[0]}
	w := &src.wire
	d := sourceJSON{Agents: &w.Agents, Graph: &w.Graph, Explore: &w.Explore, Faults: &w.Faults, Model: &w.Model, Solver: &w.Solver}
	if src.err = StrictUnmarshal(data, &d); src.err != nil {
		return nil
	}
	// Read every section back through d: a value followed by null is
	// still in w, and null followed by a value went into a fresh value
	// of the decoder's.
	w.Version, w.Name = d.Version, d.Name
	w.Agents, w.Graph, w.Explore = deref(d.Agents), deref(d.Graph), deref(d.Explore)
	w.Faults, w.Model, w.Solver = deref(d.Faults), deref(d.Model), deref(d.Solver)
	src.null = [numSections]bool{d.Agents == nil, d.Graph == nil, d.Explore == nil, d.Faults == nil, d.Model == nil, d.Solver == nil}
	src.set = [numSections]bool{w.Agents != nil, w.Graph != nil, w.Explore != nil, w.Faults != nil, w.Model != nil, w.Solver != nil}
	if slices.Contains(src.set[secAgents+1:], true) {
		src.raw = bytes.Clone(data) // data is the outer decoder's buffer
	}
	return nil
}

func deref[T any](p *T) (v T) {
	if p != nil {
		v = *p
	}
	return v
}

// mentions reports whether the source has the section as a member at
// all, null included.
func (src *sweepSource) mentions(sec int) bool { return src.null[sec] || src.set[sec] }

// tree returns one object section the source sets, as the generic tree
// mergeTrees works on: the section's last member as written.
func (src *sweepSource) tree(sec int) (any, error) {
	if src.trees == nil {
		var split struct {
			Graph   json.RawMessage `json:"graph"`
			Explore json.RawMessage `json:"explore"`
			Faults  json.RawMessage `json:"faults"`
			Model   json.RawMessage `json:"model"`
			Solver  json.RawMessage `json:"solver"`
		}
		if err := json.Unmarshal(src.raw, &split); err != nil {
			return nil, err
		}
		raws := [numSections]json.RawMessage{secGraph: split.Graph, secExplore: split.Explore, secFaults: split.Faults, secModel: split.Model, secSolver: split.Solver}
		src.trees = new([numSections]any)
		for sec := secGraph; sec < numSections; sec++ {
			if !src.set[sec] {
				continue
			}
			t, err := decodeTree(raws[sec])
			if err != nil {
				return nil, err
			}
			src.trees[sec] = t
		}
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
	if x.base.set[sec] {
		cur = x.base
	}
	for _, ai := range x.touch[sec] {
		p := x.patches[ai][pick[ai]]
		switch {
		case !p.mentions(sec):
		case !p.set[sec]: // null deletes
			cur, merged = nil, nil
		case sec == secAgents || (cur == nil && merged == nil):
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
	var doc sweepFileJSON
	if err := StrictUnmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("engine: sweep: %w", err)
	}
	if doc.Version != SchemaVersion {
		return nil, fmt.Errorf("engine: sweep: unsupported schema version %d (want %d)", doc.Version, SchemaVersion)
	}
	base := &doc.Base
	if base.opens == 0 {
		return nil, fmt.Errorf("engine: sweep %q: missing base scenario", doc.Name)
	}
	// The base is validated on its own before expanding: a broken base
	// fails once with a clear message, not once per cell. It carries no
	// version field; the document's version governs. A null base is the
	// empty one.
	if base.err != nil {
		return nil, fmt.Errorf("engine: sweep %q: base scenario: %w", doc.Name, base.err)
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
		for vi := range ax.Variants {
			v := &ax.Variants[vi]
			if v.Name == "" {
				return nil, fmt.Errorf("engine: sweep %q: axis %q has an unnamed variant", doc.Name, ax.Axis)
			}
			if seen[v.Name] {
				return nil, fmt.Errorf("engine: sweep %q: axis %q has duplicate variant %q", doc.Name, ax.Axis, v.Name)
			}
			seen[v.Name] = true
			if err := v.Scenario.patchErr(); err != nil {
				return nil, fmt.Errorf("engine: sweep %q: axis %q variant %q: %w", doc.Name, ax.Axis, v.Name, err)
			}
			x.patches[ai][vi] = &v.Scenario
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

// patchErr judges a decoded variant patch. An absent patch is the empty
// one; anything but an object is rejected — null in particular, which
// strict-decodes into a struct without complaint and, merged as a
// patch, would replace the whole base with nothing.
func (src *sweepSource) patchErr() error {
	switch {
	case src.opens != 0 && src.opens != '{':
		return errors.New("patch must be a JSON object")
	case src.err != nil:
		return src.err
	case src.wire.Version != 0:
		return errors.New("patch must not set version")
	case src.wire.Name != "":
		return errors.New("patch must not set name (cell names are generated)")
	}
	return nil
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
