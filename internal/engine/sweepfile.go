package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
// The document is read in one pass of the wire reader (wire.go). The
// base and each variant's patch (a source) are read during it, each
// section straight into its typed wire value, so a section's bytes are
// read once. A source reads its members as DecodeScenario reads a
// document: names match ignoring case, and a member given twice decodes
// over the earlier copy. That typed value is the section's final value
// unless an object is patched onto an object. Such a merge works on
// generic trees of the bytes the reader marked in each source: each
// source contributes its last member of the name, as written, and
// members inside the section merge by exact name before the merged tree
// is read back into the section.

// MaxSweepScenarios caps a sweep expansion; a grid larger than this is
// almost certainly a mistake and would stall the service.
const MaxSweepScenarios = 100000

// sweepFileJSON is a sweep document; the reader reads each source
// afresh (reader.source).
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

// sweepSource is the base scenario or one variant patch, read once
// into its typed wire value — the only decode a section that no other
// source merges into ever gets — with whether each section was absent,
// null or set.
type sweepSource struct {
	// opens is the first byte of the source's JSON value, 0 when the
	// member is absent.
	opens     byte
	err       error // reported by DecodeSweep under the source's name
	wire      scenarioJSON
	null, set [numSections]bool
	// raw is each section's last member as written, for tree to read if
	// a merge needs it; the bytes are the document's.
	raw   [numSections][]byte
	trees *[numSections]any
}

// mentions reports whether the source has the section as a member at
// all, null included.
func (src *sweepSource) mentions(sec int) bool { return src.null[sec] || src.set[sec] }

// tree returns one object section the source sets, as the generic tree
// mergeTrees works on: the section's last member as written.
func (src *sweepSource) tree(sec int) (any, error) {
	if src.trees == nil {
		src.trees = new([numSections]any)
	}
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
	done  bool // the value is resolved
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
	memo [numSections][]sectionValue
	// wire and frags are where fragment encodes: every fragment is cut
	// from frags.
	wire  scenarioJSON
	frags []byte
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
	r := newReader(data)
	r.scenarioMember(w, firstSection+sec)
	if err := r.end(); err != nil {
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
	v := &x.memo[sec][idx]
	if v.done {
		return v, nil
	}
	w, err := x.resolve(sec, pick)
	if err != nil {
		return nil, err
	}
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
		v.frag, err = x.fragment(&v.s)
	}
	if err != nil {
		return nil, err
	}
	v.done = true
	return v, nil
}

// cell assembles one grid cell from the memoised section values, and
// returns them: its canonical bytes are their fragments, in order.
func (x *sweepExpansion) cell(c *sweepCell, name string, pick []int) ([numSections]*sectionValue, error) {
	var vals [numSections]*sectionValue
	for sec := range vals {
		v, err := x.value(sec, pick, name)
		if err != nil {
			return vals, err
		}
		vals[sec] = v
	}
	c.scenario = Scenario{
		Name:       name,
		AgentSpecs: vals[secAgents].s.AgentSpecs,
		Graph:      vals[secGraph].s.Graph,
		Explore:    vals[secExplore].s.Explore,
		Faults:     vals[secFaults].s.Faults,
		Solver:     vals[secSolver].s.Solver,
	}
	// Models are not shared: a decode builds fresh relations, and engines
	// may keep per-model state. The value's own instance — decoded to
	// validate and encode it — goes to its first cell.
	m := vals[secModel]
	if c.scenario.Model, m.s.Model = m.s.Model, nil; c.scenario.Model == nil {
		var err error
		if c.scenario.Model, err = modelFromWire(name, m.model); err != nil {
			return vals, err
		}
	}
	// A grid cell is a scenario, the base need not be: the rules that
	// read two sections are checked here, once per cell.
	return vals, c.scenario.validateCross()
}

// canonicalHead opens every canonical scenario document; with the name
// blanked, what follows is one fragment per section, in order.
var canonicalHead = fmt.Sprintf(`{"version":%d`, SchemaVersion)

// fragment is the canonical encoding of a scenario that holds one
// section, minus the document frame: what that section contributes to
// any unnamed scenario's encoding. It is cut out of the writer's own
// encoding of the scenario, so there is no second encoder to keep in
// step, and it is cut from frags, so fragments cost no allocation each.
func (x *sweepExpansion) fragment(s *Scenario) ([]byte, error) {
	if err := scenarioToWire(s, &x.wire); err != nil {
		return nil, err
	}
	start := len(x.frags)
	frags, err := appendScenario(x.frags, &x.wire)
	if err != nil {
		return nil, err
	}
	n := copy(frags[start:], frags[start+len(canonicalHead):len(frags)-1])
	x.frags = frags[:start+n]
	return x.frags[start : start+n : start+n], nil
}

// advance moves pick to the next cell in grid order, the last axis
// fastest, and reports false after the last cell.
func advance(pick []int, axes []axisJSON) bool {
	for i := len(pick) - 1; i >= 0; i-- {
		if pick[i]++; pick[i] < len(axes[i].Variants) {
			return true
		}
		pick[i] = 0
	}
	return false
}

// cellNames returns the names of a grid's cells in grid order,
// "<base>/<variant>/<variant>/...", as one string and the end of each
// name in it.
func cellNames(base string, axes []axisJSON, total int) (string, []int) {
	size := total * len(base)
	for _, ax := range axes {
		for _, v := range ax.Variants {
			size += (1 + len(v.Name)) * (total / len(ax.Variants))
		}
	}
	buf := make([]byte, 0, size)
	ends := make([]int, total)
	pick := make([]int, len(axes))
	for c := range ends {
		buf = append(buf, base...)
		for ai, vi := range pick {
			buf = append(buf, '/')
			buf = append(buf, axes[ai].Variants[vi].Name...)
		}
		ends[c] = len(buf)
		advance(pick, axes)
	}
	return string(buf), ends
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
	r := newReader(data)
	r.sweepFile(&doc)
	if err := r.end(); err != nil {
		return nil, fmt.Errorf("engine: sweep: %w", err)
	}
	return expandSweep(&doc, len(data))
}

// expandSweep checks a read sweep document of size bytes and expands
// its grid. The sources' raw bytes must still be valid: the document's.
func expandSweep(doc *sweepFileJSON, size int) (*Sweep, error) {
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

	// A grid's distinct fragments take about as many bytes as the document.
	x := &sweepExpansion{base: base, patches: make([][]*sweepSource, len(doc.Axes)), frags: make([]byte, 0, size)}
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
		x.memo[sec] = make([]sectionValue, distinct)
	}

	baseName := base.wire.Name
	if baseName == "" {
		baseName = doc.Name
	}
	// Every cell's name is cut from one string, and its canonical bytes
	// from one buffer.
	names, ends := cellNames(baseName, doc.Axes, total)
	sw := &Sweep{cells: make([]sweepCell, total)}
	size, start := 0, 0
	pick := make([]int, len(doc.Axes))
	for c := range sw.cells {
		name := names[start:ends[c]]
		start = ends[c]
		vals, err := x.cell(&sw.cells[c], name, pick)
		if err != nil {
			return nil, fmt.Errorf("engine: sweep %q cell %q: %w", doc.Name, name, err)
		}
		size += len(canonicalHead) + 1
		for _, v := range vals {
			size += len(v.frag)
		}
		advance(pick, doc.Axes)
	}
	// Every value is memoised now: a second pass over the grid reads the
	// fragments back.
	buf := make([]byte, 0, size)
	for c := range sw.cells {
		start := len(buf)
		buf = append(buf, canonicalHead...)
		for sec := range x.memo {
			v, _ := x.value(sec, pick, "")
			buf = append(buf, v.frag...)
		}
		buf = append(buf, '}')
		sw.cells[c].canonical = buf[start:len(buf):len(buf)]
		advance(pick, doc.Axes)
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
