package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/netsim"
	"repro/internal/sat"
)

// SchemaVersion is the current version of the scenario/result/sweep
// JSON schema. Decoders accept exactly this version; the version field
// is mandatory so future schema changes can migrate old files
// explicitly instead of misreading them.
const SchemaVersion = 1

// CacheEpoch is folded into every content address (CacheKey). Bump it
// whenever a checker's semantics change — a verdict-affecting fix in
// explore, sat, relalg, netsim, or an engine adapter — so persistent
// caches (mcaserved -cachedir) stop serving verdicts computed by the
// old code instead of replaying them forever. SchemaVersion guards only
// the wire format; this guards the meaning of a cached Result.
// docs/OPERATIONS.md keeps the history of its values.
const CacheEpoch = 3

// Codec invariants:
//
//   - Encoding is canonical: field order is fixed, defaults are
//     omitted, and every set-valued field (graph edges, per-edge fault
//     overrides, partition blocks) is sorted. Two semantically equal
//     scenarios encode to the same bytes, which is what makes the
//     content-addressed result cache sound.
//   - Decoding is strict: unknown fields, a missing or wrong version,
//     and unknown enum tokens are errors, never silently ignored.
//   - Round trips are exact: DecodeScenario(EncodeScenario(s)) yields a
//     scenario that re-encodes to byte-identical JSON.
//   - A scenario is data: every scenario Scenario.Validate accepts
//     encodes. EncodeScenario still refuses what it cannot write — a
//     custom mca.Resolver or utility, a non-finite float — so an invalid
//     scenario is never addressed as some valid one. Explore.Cancel is
//     owned by the engine layer and is never serialized.

// ---- wire types ----
//
// The wire structs mirror the in-memory types field by field; their
// struct order is the canonical field order of the format.

type scenarioJSON struct {
	Version int          `json:"version"`
	Name    string       `json:"name,omitempty"`
	Agents  []agentJSON  `json:"agents,omitempty"`
	Graph   *graphJSON   `json:"graph,omitempty"`
	Explore *exploreJSON `json:"explore,omitempty"`
	Faults  *faultsJSON  `json:"faults,omitempty"`
	Model   *modelJSON   `json:"model,omitempty"`
	Solver  *solverJSON  `json:"solver,omitempty"`
}

type agentJSON struct {
	ID       int        `json:"id"`
	Items    int        `json:"items"`
	Base     []int64    `json:"base,omitempty"`
	Demands  []int64    `json:"demands,omitempty"`
	Capacity int64      `json:"capacity,omitempty"`
	Policy   policyJSON `json:"policy"`
}

type policyJSON struct {
	Target        int           `json:"target"`
	Utility       *utilityJSON  `json:"utility,omitempty"`
	ReleaseOutbid bool          `json:"release_outbid,omitempty"`
	Rebid         mca.RebidMode `json:"rebid,omitempty"`
	BidsPerRound  int           `json:"bids_per_round,omitempty"`
}

type utilityJSON struct {
	Kind string `json:"kind"`
	// submodular-residual
	Decay int64 `json:"decay,omitempty"`
	// non-submodular-synergy
	SynergyNum int64 `json:"synergy_num,omitempty"`
	SynergyDen int64 `json:"synergy_den,omitempty"`
	// escalating-attack
	Step int64 `json:"step,omitempty"`
	Cap  int64 `json:"cap,omitempty"`
}

type graphJSON struct {
	Nodes int        `json:"nodes"`
	Edges []edgeJSON `json:"edges,omitempty"`
}

type edgeJSON struct {
	U int `json:"u"`
	V int `json:"v"`
	// W is the edge weight; omitted for the default weight 1. A pointer
	// keeps an explicit weight of 0 distinct from "unweighted".
	W *float64 `json:"w,omitempty"`
}

type exploreJSON struct {
	Bound               int               `json:"bound,omitempty"`
	BoundSlack          int               `json:"bound_slack,omitempty"`
	HardLimitFactor     int               `json:"hard_limit_factor,omitempty"`
	MaxStates           int               `json:"max_states,omitempty"`
	QueueDepth          int               `json:"queue_depth,omitempty"`
	DisableVisitedSet   bool              `json:"disable_visited_set,omitempty"`
	DuplicateDeliveries bool              `json:"duplicate_deliveries,omitempty"`
	Store               explore.StoreKind `json:"store,omitempty"`
	StoreBits           int               `json:"store_bits,omitempty"`
}

type faultsJSON struct {
	Drop       float64         `json:"drop,omitempty"`
	DropEdge   []edgeFaultJSON `json:"drop_edge,omitempty"`
	Delay      int             `json:"delay,omitempty"`
	DelayEdge  []edgeFaultJSON `json:"delay_edge,omitempty"`
	Duplicate  float64         `json:"duplicate,omitempty"`
	Reorder    int             `json:"reorder,omitempty"`
	Partitions [][]int         `json:"partitions,omitempty"`
	HealAfter  int             `json:"heal_after,omitempty"`
}

type edgeFaultJSON struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Drop  float64 `json:"drop,omitempty"`
	Delay int     `json:"delay,omitempty"`
}

// modelJSON is a relational model: an mcamodel encoding, written as the
// builder's name and the scope it was built at,
//
//	{"kind": "mca-model", "spec": {"encoding": "optimized",
//	  "scope": {"pnodes": 3, "vnodes": 2, "values": 4, "states": 3, "msgs": 2}}}
//
// The scope written is the built model's, defaults filled in; builders
// fill them idempotently, so decode-then-re-encode reproduces the bytes.
type modelJSON struct {
	Kind string        `json:"kind"`
	Spec modelSpecJSON `json:"spec"`
}

// modelKind is the one kind the format has.
const modelKind = "mca-model"

type modelSpecJSON struct {
	Encoding string    `json:"encoding"`
	Scope    scopeJSON `json:"scope"`
	// AssertState selects the trace state the consensus assertion ranges
	// over: 0 (omitted) is the final state, k > 0 the 1-based state k.
	AssertState int `json:"assert_state,omitempty"`
}

type scopeJSON struct {
	PNodes      int `json:"pnodes"`
	VNodes      int `json:"vnodes"`
	Values      int `json:"values"`
	States      int `json:"states"`
	Msgs        int `json:"msgs"`
	IntBitwidth int `json:"int_bitwidth,omitempty"`
	Triples     int `json:"triples,omitempty"`
	BidVectors  int `json:"bid_vectors,omitempty"`
}

type solverJSON struct {
	DisableVSIDS       bool    `json:"disable_vsids,omitempty"`
	DisableRestarts    bool    `json:"disable_restarts,omitempty"`
	DisablePhaseSaving bool    `json:"disable_phase_saving,omitempty"`
	MaxConflicts       int64   `json:"max_conflicts,omitempty"`
	InvertPhase        bool    `json:"invert_phase,omitempty"`
	RestartBase        int64   `json:"restart_base,omitempty"`
	RandSeed           uint64  `json:"rand_seed,omitempty"`
	RandomPolarityFreq float64 `json:"random_polarity_freq,omitempty"`
}

// ---- model codec ----

func modelToWire(m *mcamodel.Encoding) (*modelJSON, error) {
	if m == nil {
		return nil, nil
	}
	if mcamodel.Encodings[m.Name] == nil {
		return nil, fmt.Errorf("engine: model encoding %q is not buildable (want naive|optimized)", m.Name)
	}
	sc := m.Scope
	return &modelJSON{Kind: modelKind, Spec: modelSpecJSON{
		Encoding: m.Name,
		Scope: scopeJSON{
			PNodes: sc.PNodes, VNodes: sc.VNodes, Values: sc.Values, States: sc.States, Msgs: sc.Msgs,
			IntBitwidth: sc.IntBitwidth, Triples: sc.Triples, BidVectors: sc.BidVectors,
		},
		AssertState: m.AssertState,
	}}, nil
}

// modelFromWire builds the model. Like graphFromWire it checks what it
// cannot build without — the kind and the encoding name; the builders
// bound the scope (mcamodel.Scope.Validate) before they allocate.
func modelFromWire(name string, w *modelJSON) (*mcamodel.Encoding, error) {
	if w == nil {
		return nil, nil
	}
	if w.Kind != modelKind {
		return nil, fmt.Errorf("engine: scenario %q: unknown model kind %q (want %s)", name, w.Kind, modelKind)
	}
	build := mcamodel.Encodings[w.Spec.Encoding]
	if build == nil {
		return nil, fmt.Errorf("engine: scenario %q: unknown model encoding %q (want naive|optimized)", name, w.Spec.Encoding)
	}
	sc := w.Spec.Scope
	m, err := build(mcamodel.Scope{
		PNodes: sc.PNodes, VNodes: sc.VNodes, Values: sc.Values, States: sc.States, Msgs: sc.Msgs,
		IntBitwidth: sc.IntBitwidth, Triples: sc.Triples, BidVectors: sc.BidVectors,
	})
	if err == nil && w.Spec.AssertState != 0 {
		m, err = m.WithAssertState(w.Spec.AssertState)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: scenario %q model: %w", name, err)
	}
	return m, nil
}

// ---- utility codec ----
//
// Every other enum of the format marshals itself: its token table sits
// beside the type (mca.RebidMode, explore.StoreKind and ViolationKind,
// sat.Status, Status) and the wire structs hold the typed values. A
// utility is a kind plus parameters, so it is mapped here, keyed by the
// kinds mca names.

// encodeUtility returns u's wire form, and false for no utility.
func encodeUtility(u mca.Utility) (utilityJSON, bool, error) {
	switch u := u.(type) {
	case nil:
		return utilityJSON{}, false, nil
	case mca.SubmodularResidual:
		return utilityJSON{Kind: mca.KindSubmodularResidual, Decay: u.Decay}, true, nil
	case mca.NonSubmodularSynergy:
		return utilityJSON{Kind: mca.KindNonSubmodularSynergy, SynergyNum: u.SynergyNum, SynergyDen: u.SynergyDen}, true, nil
	case mca.FlatUtility:
		return utilityJSON{Kind: mca.KindFlat}, true, nil
	case mca.EscalatingUtility:
		return utilityJSON{Kind: mca.KindEscalatingAttack, Step: u.Step, Cap: u.Cap}, true, nil
	}
	return utilityJSON{}, false, fmt.Errorf("custom utility %q (%T); use one of the named mca utilities", u.Name(), u)
}

func decodeUtility(w *utilityJSON) (mca.Utility, error) {
	if w == nil {
		return nil, nil
	}
	switch w.Kind {
	case mca.KindSubmodularResidual:
		return mca.SubmodularResidual{Decay: w.Decay}, nil
	case mca.KindNonSubmodularSynergy:
		return mca.NonSubmodularSynergy{SynergyNum: w.SynergyNum, SynergyDen: w.SynergyDen}, nil
	case mca.KindFlat:
		return mca.FlatUtility{}, nil
	case mca.KindEscalatingAttack:
		return mca.EscalatingUtility{Step: w.Step, Cap: w.Cap}, nil
	}
	return nil, fmt.Errorf("engine: unknown utility kind %q (want %s)", w.Kind, strings.Join(mca.UtilityKinds, "|"))
}

// ---- scenario encode ----

// EncodeScenario renders the scenario as canonical versioned JSON: a
// deterministic byte string suitable for files, the wire, and content
// addressing. See the codec invariants at the top of this file for what
// cannot be encoded.
func EncodeScenario(s *Scenario) ([]byte, error) {
	var w scenarioJSON
	if err := scenarioToWire(s, &w); err != nil {
		return nil, err
	}
	// Room for a typical scenario, so that it takes one allocation.
	return appendScenario(make([]byte, 0, 512), &w)
}

// scenarioToWire fills w with the wire form of s. It reuses the agent
// list w holds and the utilities its agents point to, so a caller that
// converts many scenarios through one w stops allocating for them.
func scenarioToWire(s *Scenario, w *scenarioJSON) error {
	agents := w.Agents[:0]
	if cap(agents) < len(s.AgentSpecs) {
		agents = make([]agentJSON, 0, len(s.AgentSpecs))
	}
	var utils []utilityJSON // this call's, when agents has none to reuse
	for i, cfg := range s.AgentSpecs {
		if cfg.Resolver != nil {
			return fmt.Errorf("engine: scenario %q agent %d has a custom resolver; only the default conflict table is serializable", s.Name, cfg.ID)
		}
		u, ok, err := encodeUtility(cfg.Policy.Utility)
		if err != nil {
			return fmt.Errorf("engine: scenario %q agent %d: %w", s.Name, cfg.ID, err)
		}
		var util *utilityJSON
		if ok {
			if util = agents[:i+1][i].Policy.Utility; util == nil {
				if utils == nil {
					utils = make([]utilityJSON, len(s.AgentSpecs))
				}
				util = &utils[i]
			}
			*util = u
		}
		agents = append(agents, agentJSON{
			ID:       int(cfg.ID),
			Items:    cfg.Items,
			Base:     cfg.Base,
			Demands:  cfg.Demands,
			Capacity: cfg.Capacity,
			Policy: policyJSON{
				Target:        cfg.Policy.Target,
				Utility:       util,
				ReleaseOutbid: cfg.Policy.ReleaseOutbid,
				Rebid:         cfg.Policy.Rebid,
				BidsPerRound:  cfg.Policy.BidsPerRound,
			},
		})
	}
	*w = scenarioJSON{Version: SchemaVersion, Name: s.Name, Agents: agents}
	if s.Graph != nil {
		gw := &graphJSON{Nodes: s.Graph.N()}
		for _, e := range s.Graph.Edges() { // sorted by (U, V)
			we := edgeJSON{U: e.U, V: e.V}
			if e.Weight != 1 {
				w := e.Weight
				we.W = &w
			}
			gw.Edges = append(gw.Edges, we)
		}
		w.Graph = gw
	}
	// SpillDir and SpillStates are deliberately absent: spill is a
	// verdict-neutral runtime resource (like Cancel), so it must not
	// split the content-addressed result cache.
	if ex := (exploreJSON{
		Bound:               s.Explore.Bound,
		BoundSlack:          s.Explore.BoundSlack,
		HardLimitFactor:     s.Explore.HardLimitFactor,
		MaxStates:           s.Explore.MaxStates,
		QueueDepth:          s.Explore.QueueDepth,
		DisableVisitedSet:   s.Explore.DisableVisitedSet,
		DuplicateDeliveries: s.Explore.DuplicateDeliveries,
		Store:               s.Explore.Store,
		StoreBits:           s.Explore.StoreBits,
	}); ex != (exploreJSON{}) {
		w.Explore = &ex
	}
	w.Faults = faultsToWire(s.Faults)
	var err error
	if w.Model, err = modelToWire(s.Model); err != nil {
		return err
	}
	if sv := (solverJSON{
		DisableVSIDS:       s.Solver.DisableVSIDS,
		DisableRestarts:    s.Solver.DisableRestarts,
		DisablePhaseSaving: s.Solver.DisablePhaseSaving,
		MaxConflicts:       s.Solver.MaxConflicts,
		InvertPhase:        s.Solver.InvertPhase,
		RestartBase:        s.Solver.RestartBase,
		RandSeed:           s.Solver.RandSeed,
		RandomPolarityFreq: s.Solver.RandomPolarityFreq,
	}); sv != (solverJSON{}) {
		w.Solver = &sv
	}
	return nil
}

func faultsToWire(f netsim.Faults) *faultsJSON {
	if f.None() && f.HealAfter == 0 {
		return nil
	}
	// Duplicate and Reorder are verdict-affecting and omitempty: a
	// scenario that leaves them zero encodes to the exact bytes it did
	// before the fields existed, so old cache addresses stay valid while
	// any nonzero setting splits the key.
	w := &faultsJSON{Drop: f.Drop, Delay: f.Delay, Duplicate: f.Duplicate, Reorder: f.Reorder, HealAfter: f.HealAfter}
	for e, p := range f.DropEdge {
		w.DropEdge = append(w.DropEdge, edgeFaultJSON{From: int(e.From), To: int(e.To), Drop: p})
	}
	sortEdgeFaults(w.DropEdge)
	for e, d := range f.DelayEdge {
		w.DelayEdge = append(w.DelayEdge, edgeFaultJSON{From: int(e.From), To: int(e.To), Delay: d})
	}
	sortEdgeFaults(w.DelayEdge)
	for _, block := range f.Partitions {
		b := append([]int(nil), block...)
		sort.Ints(b)
		w.Partitions = append(w.Partitions, b)
	}
	sort.Slice(w.Partitions, func(i, j int) bool {
		return lessIntSlice(w.Partitions[i], w.Partitions[j])
	})
	return w
}

func sortEdgeFaults(s []edgeFaultJSON) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].From != s[j].From {
			return s[i].From < s[j].From
		}
		return s[i].To < s[j].To
	})
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// ---- scenario decode ----

// DecodeScenario parses a canonical scenario document. The decode is
// strict — unknown fields, a missing or wrong version, and unknown enum
// tokens are errors — and ends in Scenario.Validate: what it returns is
// well formed.
func DecodeScenario(data []byte) (Scenario, error) {
	var w scenarioJSON
	r := newReader(data)
	r.scenario(&w, nil)
	if err := r.end(); err != nil {
		return Scenario{}, fmt.Errorf("engine: scenario: %w", err)
	}
	if w.Version != SchemaVersion {
		return Scenario{}, fmt.Errorf("engine: scenario: unsupported schema version %d (want %d)", w.Version, SchemaVersion)
	}
	return scenarioFromWire(&w)
}

// MaxGraphNodes bounds graph.nodes in a scenario document. graph.New
// allocates per node, so without a bound a 41-byte document asks for
// gigabytes; the bound sits far above anything an engine can run.
const MaxGraphNodes = 1 << 16

// scenarioFromWire converts a decoded document section by section and
// validates the result. The converters are separate functions because a
// sweep expansion calls each one once per distinct section value
// instead of once per cell. They only convert: every rule on the values
// is Scenario.Validate's, except the ones graphFromWire and
// modelFromWire cannot build without.
func scenarioFromWire(w *scenarioJSON) (Scenario, error) {
	s := Scenario{Name: w.Name}
	var err error
	if s.AgentSpecs, err = agentsFromWire(w.Name, w.Agents); err != nil {
		return Scenario{}, err
	}
	if s.Graph, err = graphFromWire(w.Name, w.Graph); err != nil {
		return Scenario{}, err
	}
	s.Explore = exploreFromWire(w.Explore)
	s.Faults = faultsFromWire(w.Faults)
	if s.Model, err = modelFromWire(w.Name, w.Model); err != nil {
		return Scenario{}, err
	}
	s.Solver = solverFromWire(w.Solver)
	return s, s.Validate()
}

func agentsFromWire(name string, agents []agentJSON) ([]mca.Config, error) {
	var specs []mca.Config
	if len(agents) > 0 {
		specs = make([]mca.Config, 0, len(agents))
	}
	for i := range agents {
		aw := &agents[i]
		util, err := decodeUtility(aw.Policy.Utility)
		if err != nil {
			return nil, fmt.Errorf("engine: scenario %q agent %d: %w", name, aw.ID, err)
		}
		specs = append(specs, mca.Config{
			ID:       mca.AgentID(aw.ID),
			Items:    aw.Items,
			Base:     aw.Base,
			Demands:  aw.Demands,
			Capacity: aw.Capacity,
			Policy: mca.Policy{
				Target:        aw.Policy.Target,
				Utility:       util,
				ReleaseOutbid: aw.Policy.ReleaseOutbid,
				Rebid:         aw.Policy.Rebid,
				BidsPerRound:  aw.Policy.BidsPerRound,
			},
		})
	}
	return specs, nil
}

// graphFromWire builds the graph. Its two checks are the ones it cannot
// run without: the node ceiling before graph.New allocates, the
// endpoints before AddWeightedEdge panics.
func graphFromWire(name string, gw *graphJSON) (*graph.Graph, error) {
	if gw == nil {
		return nil, nil
	}
	if gw.Nodes < 0 || gw.Nodes > MaxGraphNodes {
		return nil, fmt.Errorf("engine: scenario %q: graph size %d outside [0,%d]", name, gw.Nodes, MaxGraphNodes)
	}
	g := graph.New(gw.Nodes)
	for _, e := range gw.Edges {
		if e.U < 0 || e.U >= gw.Nodes || e.V < 0 || e.V >= gw.Nodes || e.U == e.V {
			return nil, fmt.Errorf("engine: scenario %q: bad edge {%d,%d} in %d-node graph", name, e.U, e.V, gw.Nodes)
		}
		wgt := 1.0
		if e.W != nil {
			wgt = *e.W
		}
		g.AddWeightedEdge(e.U, e.V, wgt)
	}
	return g, nil
}

func exploreFromWire(ew *exploreJSON) explore.Options {
	if ew == nil {
		return explore.Options{}
	}
	return explore.Options{
		Bound:               ew.Bound,
		BoundSlack:          ew.BoundSlack,
		HardLimitFactor:     ew.HardLimitFactor,
		MaxStates:           ew.MaxStates,
		QueueDepth:          ew.QueueDepth,
		DisableVisitedSet:   ew.DisableVisitedSet,
		DuplicateDeliveries: ew.DuplicateDeliveries,
		Store:               ew.Store,
		StoreBits:           ew.StoreBits,
	}
}

func solverFromWire(sw *solverJSON) sat.Options {
	if sw == nil {
		return sat.Options{}
	}
	return sat.Options{
		DisableVSIDS:       sw.DisableVSIDS,
		DisableRestarts:    sw.DisableRestarts,
		DisablePhaseSaving: sw.DisablePhaseSaving,
		MaxConflicts:       sw.MaxConflicts,
		InvertPhase:        sw.InvertPhase,
		RestartBase:        sw.RestartBase,
		RandSeed:           sw.RandSeed,
		RandomPolarityFreq: sw.RandomPolarityFreq,
	}
}

func faultsFromWire(fw *faultsJSON) netsim.Faults {
	if fw == nil {
		return netsim.Faults{}
	}
	f := netsim.Faults{Drop: fw.Drop, Delay: fw.Delay, Duplicate: fw.Duplicate, Reorder: fw.Reorder, HealAfter: fw.HealAfter}
	for _, e := range fw.DropEdge {
		if f.DropEdge == nil {
			f.DropEdge = map[netsim.Edge]float64{}
		}
		f.DropEdge[netsim.Edge{From: mca.AgentID(e.From), To: mca.AgentID(e.To)}] = e.Drop
	}
	for _, e := range fw.DelayEdge {
		if f.DelayEdge == nil {
			f.DelayEdge = map[netsim.Edge]int{}
		}
		f.DelayEdge[netsim.Edge{From: mca.AgentID(e.From), To: mca.AgentID(e.To)}] = e.Delay
	}
	for _, block := range fw.Partitions {
		f.Partitions = append(f.Partitions, append([]int(nil), block...))
	}
	return f
}

// StrictUnmarshal is json.Unmarshal with unknown members refused, and
// anything but JSON white space after the document an error too: the
// decoding rule of the documents that cross a trust boundary and are not
// scenario-shaped — a checkpoint's envelope, a generator profile, a
// resume body. Scenario-shaped documents have a reader of their own
// (wire.go) that accepts what this accepts into their wire structs.
func StrictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	at := int(dec.InputOffset())
	if rest := bytes.TrimLeft(data[at:], " \t\n\r"); len(rest) > 0 {
		return fmt.Errorf("byte %d: %w", len(data)-len(rest), errTrailingData)
	}
	return nil
}

// errTrailingData is the error for bytes after a document.
var errTrailingData = errors.New("trailing data after JSON document")

// ---- result codec ----

// EncodeResult renders a Result as canonical versioned JSON
// (appendResult). Err is flattened to its message. A cached verdict's
// line is built once (encodedLine); every hit splices its own name,
// index and cached flag into those bytes.
func EncodeResult(r *Result) ([]byte, error) {
	if r.line != nil {
		if data := r.line.splice(r); data != nil {
			return data, nil
		}
	}
	data, _, err := encodeLine(r)
	return data, err
}

// encodeLine is appendResult into a pooled buffer, copied out at its size
// and a byte for an NDJSON newline; nil if r has no encoding.
func encodeLine(r *Result) ([]byte, lineSpans, error) {
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	data, spans, err := appendResult((*buf)[:0], r)
	*buf = data
	if err != nil {
		return nil, spans, err
	}
	return append(make([]byte, 0, len(data)+1), data...), spans, nil
}

var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodedLine is the encoding of a verdict, kept beside it: the Result
// the cache stores points to one, every hit copied out of the cache
// shares it, and it goes with the entry when the entry is overwritten or
// evicted. The bytes are either the document DecodeResult read (a
// worker's reply line, a disk or peer entry), or built by the first
// EncodeResult of the stored verdict: its first hit's, or the write of a
// disk or peer tier, which needs those bytes anyway. A verdict that a
// memory-only cache stores and never serves is never encoded.
type encodedLine struct {
	// base is the verdict with the fields a hit sets — Scenario, Index,
	// Cached — zeroed; err is its error message.
	base Result
	err  string

	once sync.Once
	// data is an encoding of base; nil if building it failed.
	data []byte
	lineSpans
}

// lineSpans are the spans of a result line that a splice replaces, as
// appendResult wrote them or DecodeResult found them: [name, nameEnd) by
// the scenario member, [index, indexEnd) by the index, and [cached,
// cachedEnd) by the cached member or nothing.
type lineSpans struct {
	name, nameEnd, index, indexEnd, cached, cachedEnd int
}

// withLine returns r with a fresh encodedLine: the Result a cache
// stores. Nothing is encoded here.
func withLine(r Result) Result {
	l := &encodedLine{base: r, err: errText(r.Err)}
	l.base.Scenario, l.base.Index, l.base.Cached, l.base.line = "", 0, false, nil
	r.line = l
	return r
}

// errText is what the encoder writes of err: its message, or nothing.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// splice is EncodeResult of r from the kept bytes, or nil when r differs
// from the stored verdict in a field other than the three a hit sets.
func (l *encodedLine) splice(r *Result) []byte {
	b := &l.base
	if r.Engine != b.Engine || r.Status != b.Status || r.Violation != b.Violation || r.SATStatus != b.SATStatus ||
		r.Trace != b.Trace || r.Stats != b.Stats || errText(r.Err) != l.err {
		return nil
	}
	l.once.Do(l.build)
	if l.data == nil {
		return nil
	}
	// Room for the scenario member, any index and the newline an NDJSON
	// writer appends.
	w := writer{b: make([]byte, 0, len(l.data)+len(`,"scenario":""`)+len(r.Scenario)+21)}
	w.b = append(w.b, l.data[:l.name]...)
	w.text("scenario", r.Scenario)
	w.b = strconv.AppendInt(append(w.b, l.data[l.nameEnd:l.index]...), int64(r.Index), 10)
	w.b = append(w.b, l.data[l.indexEnd:l.cached]...)
	w.omitBool("cached", r.Cached)
	return append(w.b, l.data[l.cachedEnd:]...)
}

// build encodes base with Cached set, unless the line came with its
// bytes, and keeps the spans the writer records.
func (l *encodedLine) build() {
	if l.data == nil {
		r := l.base
		r.Cached = true
		l.data, l.lineSpans, _ = encodeLine(&r)
	}
}

// appendString appends s as json.Marshal writes a string: <, > and & and
// the control characters escaped, each byte of invalid UTF-8 as \ufffd,
// and U+2028 and U+2029 escaped. With line set, such a byte is written
// as U+FFFD itself, which is what the escape reads back as: a result
// line and a work unit write it so, and a string has one spelling
// (DecodeResult).
func appendString(dst []byte, s string, line bool) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			if line {
				dst = append(dst, "\uFFFD"...)
			} else {
				dst = append(dst, `\ufffd`...)
			}
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ---- summary codec ----

type summaryJSON struct {
	Version      int                           `json:"version"`
	Total        int                           `json:"total"`
	Holds        int                           `json:"holds,omitempty"`
	Violated     int                           `json:"violated,omitempty"`
	Inconclusive int                           `json:"inconclusive,omitempty"`
	Errors       int                           `json:"errors,omitempty"`
	Capped       int                           `json:"capped,omitempty"`
	CacheHits    int                           `json:"cache_hits,omitempty"`
	Violations   map[explore.ViolationKind]int `json:"violations,omitempty"`
	Scenarios    []string                      `json:"scenarios,omitempty"`
	WallNS       int64                         `json:"wall_ns,omitempty"`
}

// EncodeSummary renders a batch summary as versioned JSON (violation
// kinds keyed by name).
func EncodeSummary(s *Summary) ([]byte, error) {
	w := summaryJSON{
		Version:      SchemaVersion,
		Total:        s.Total,
		Holds:        s.Holds,
		Violated:     s.Violated,
		Inconclusive: s.Inconclusive,
		Errors:       s.Errors,
		Capped:       s.Capped,
		CacheHits:    s.CacheHits,
		Violations:   s.Violations,
		Scenarios:    s.Scenarios,
		WallNS:       int64(s.Wall),
	}
	return json.Marshal(w)
}

// ---- content addressing ----

// CacheKey returns the content address of (scenario, engine): the
// SHA-256 of the CacheEpoch prefix, the engine spec (EncodeEngineSpec,
// which carries every field that can change a verdict — Simulation's
// Runs and Seed, not just the display name), and the canonical scenario
// encoding with the display name blanked, so two identically configured
// scenarios hit the same cache entry regardless of how they are
// labelled. Auto resolves to its per-scenario delegate, so
// auto-scheduled work shares entries with direct engine calls; nil
// means Auto. An engine that only decides where another runs (the
// fleet's remote executor) exposes it through Unwrap() Engine and is
// addressed as that engine: one verdict, one address, wherever it was
// computed. It returns EncodeScenario's error for a scenario the codec
// cannot encode, which Validate would have rejected, and
// EncodeEngineSpec's for a user-defined engine, which has no spec and
// so no address: it runs uncached.
func CacheKey(s *Scenario, e Engine) (string, error) {
	canonical, err := encodeUnnamed(s)
	if err != nil {
		return "", err
	}
	return contentAddress(canonical, s, e)
}

// encodeUnnamed is the canonical encoding CacheKey hashes: the scenario
// with its display name blanked.
func encodeUnnamed(s *Scenario) ([]byte, error) {
	unnamed := *s
	unnamed.Name = ""
	return EncodeScenario(&unnamed)
}

// epochPrefix opens every content address, so a CacheEpoch bump moves
// them all.
var epochPrefix = fmt.Appendf(nil, "epoch%d\n", CacheEpoch)

// contentAddress hashes the addressed engine's spec and canonical, which
// must be encodeUnnamed(s) — CacheKey computes it, a decoded sweep
// carries it. s itself is read only to resolve Auto.
func contentAddress(canonical []byte, s *Scenario, e Engine) (string, error) {
	return (*specMemo)(nil).address(canonical, s, e)
}

// specMemo keeps the encoded spec of each engine a Runner addresses. A
// Runner holds one for its lifetime — one request — so it holds one
// entry per distinct engine of that request; a nil *specMemo encodes on
// every call.
type specMemo struct {
	m sync.Map // Engine → []byte
}

// address is contentAddress with the spec from m. Spec and scenario are
// both JSON objects, so their concatenation is unambiguous.
func (m *specMemo) address(canonical []byte, s *Scenario, e Engine) (string, error) {
	spec, err := m.encode(addressedEngine(e, s))
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(epochPrefix)
	h.Write(spec)
	h.Write(canonical)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])), nil
}

// encode is EncodeEngineSpec(e), encoded once per engine value (workers
// that meet a new engine at the same moment may each encode it; one
// result is kept).
func (m *specMemo) encode(e Engine) ([]byte, error) {
	w, err := engineSpec(e)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return encodeSpec(&w), nil
	}
	// engineSpec accepted e, so e is comparable and can key the map.
	if spec, ok := m.m.Load(e); ok {
		return spec.([]byte), nil
	}
	spec := encodeSpec(&w)
	m.m.Store(e, spec)
	return spec, nil
}

// addressedEngine is the engine a content address names: e resolved for
// s, its defaulted Simulation fields filled in so Simulation{} and
// Simulation{Runs: 16} — the same verification — share one address.
// The spec does the rest of the normalizing: it drops what selects no
// verification (Explicit's workers up to MaxWorkers, SAT's session
// pool), so an incremental run shares the address of a one-shot run of
// the same scenario — the verdict is the same, only the effort differs.
func addressedEngine(e Engine, s *Scenario) Engine {
	e = resolveEngine(e, s)
	if sim, ok := e.(Simulation); ok {
		e = sim.withDefaults()
	}
	return e
}

// VerifyCached verifies one scenario through a result cache: a
// conclusive cached result comes back immediately with Cached set (and
// the scenario's own display name restored — the cache is addressed on
// content, not labels), and a miss verifies on eng and stores
// conclusive verdicts back. A nil cache makes this plain eng.Verify.
// This is the only
// implementation of the cache protocol: the Runner's pool (and so the
// fleet coordinator), cmd/mcaserved and fleet workers all call it.
func VerifyCached(ctx context.Context, eng Engine, s Scenario, c ResultCache) Result {
	return verifyCached(ctx, eng, s, nil, c, nil)
}

// encodedVerifier is an engine that ships the scenario elsewhere as
// bytes (the fleet's remote executor): VerifyEncoded is its Verify, given
// encodeUnnamed(&s) when the caller holds it, else nil, so the scenario
// is not encoded a second time.
type encodedVerifier interface {
	VerifyEncoded(ctx context.Context, s Scenario, canonical []byte) Result
}

// verifyCached is VerifyCached for a caller that may already hold
// encodeUnnamed(&s): a decoded sweep's cells do, and are addressed from
// those bytes instead of re-encoding the scenario they were decoded
// from. A nil canonical is computed here when there is a cache to
// address. Either way an encodedVerifier is handed the bytes. specs is
// the caller's spec memo, or nil.
//
// This is also where a panic inside an engine is contained, once, for
// every caller — the Runner's pool goroutines, mcaserved's /verify, a
// fleet worker's /fleet/work, the differential oracle's legs: it becomes
// this scenario's error result (logged with its stack) instead of
// ending the process, the way net/http contains a panicking handler.
// Engines that start goroutines re-raise a goroutine's panic on the one
// that called them, so it arrives here too.
func verifyCached(ctx context.Context, eng Engine, s Scenario, canonical []byte, c ResultCache, specs *specMemo) (res Result) {
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("engine: scenario %q: panic in %s: %v", s.Name, eng.Name(), p)
			slog.Error("engine panic", "err", err, "stack", string(debug.Stack()))
			res = errorResult(&s, eng.Name(), err)
		}
	}()
	var key string
	if c != nil {
		if canonical == nil {
			// Only a scenario Validate rejects fails to encode: it goes to
			// eng unaddressed, and every built-in adapter's Applicable
			// reports why.
			canonical, _ = encodeUnnamed(&s)
		}
		if canonical != nil {
			// A user-defined engine has no spec, so no address: it runs
			// uncached.
			key, _ = specs.address(canonical, &s, eng)
		}
		if key != "" {
			if res, ok := c.Get(key); ok {
				res.Index = -1
				res.Scenario = s.Name
				res.Cached = true
				return res
			}
		}
	}
	if ev, ok := eng.(encodedVerifier); ok {
		res = ev.VerifyEncoded(ctx, s, canonical)
	} else {
		res = eng.Verify(ctx, s)
	}
	if key != "" && (res.Status == StatusHolds || res.Status == StatusViolated) {
		// eng may have answered from a cache of its own (a fleet
		// worker's): the entry is stored in the shape a computed one has.
		// A line eng answered with (the fleet's) is stored as it came.
		stored := res
		stored.Cached = false
		if stored.line == nil {
			stored = withLine(stored)
		}
		c.Put(key, stored)
	}
	return res
}
