package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"reflect"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/netsim"
	"repro/internal/sat"
	"repro/internal/trace"
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
const CacheEpoch = 2

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

func encodeUtility(u mca.Utility) (*utilityJSON, error) {
	switch u := u.(type) {
	case nil:
		return nil, nil
	case mca.SubmodularResidual:
		return &utilityJSON{Kind: mca.KindSubmodularResidual, Decay: u.Decay}, nil
	case mca.NonSubmodularSynergy:
		return &utilityJSON{Kind: mca.KindNonSubmodularSynergy, SynergyNum: u.SynergyNum, SynergyDen: u.SynergyDen}, nil
	case mca.FlatUtility:
		return &utilityJSON{Kind: mca.KindFlat}, nil
	case mca.EscalatingUtility:
		return &utilityJSON{Kind: mca.KindEscalatingAttack, Step: u.Step, Cap: u.Cap}, nil
	}
	return nil, fmt.Errorf("custom utility %q (%T); use one of the named mca utilities", u.Name(), u)
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
	w, err := scenarioToWire(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

func scenarioToWire(s *Scenario) (*scenarioJSON, error) {
	w := &scenarioJSON{Version: SchemaVersion, Name: s.Name}
	for _, cfg := range s.AgentSpecs {
		if cfg.Resolver != nil {
			return nil, fmt.Errorf("engine: scenario %q agent %d has a custom resolver; only the default conflict table is serializable", s.Name, cfg.ID)
		}
		util, err := encodeUtility(cfg.Policy.Utility)
		if err != nil {
			return nil, fmt.Errorf("engine: scenario %q agent %d: %w", s.Name, cfg.ID, err)
		}
		w.Agents = append(w.Agents, agentJSON{
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
		return nil, err
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
	return w, nil
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
	if err := StrictUnmarshal(data, &w); err != nil {
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
	for _, aw := range agents {
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

// StrictUnmarshal is json.Unmarshal with unknown members refused: the
// one decoding rule for every document that crosses a trust boundary.
// Anything but white space after the document is an error too.
func StrictUnmarshal(data []byte, v any) error {
	recycle := len(data) <= maxRecycledDocument
	var d *strictDecoder
	if recycle {
		d = strictDecoders.Get().(*strictDecoder)
	} else {
		d = newStrictDecoder()
	}
	d.src.Reset(data)
	if err := d.dec.Decode(v); err != nil {
		// A decoder that failed may hold a read error or half a
		// document: it is not recycled.
		return err
	}
	if len(bytes.TrimSpace(data[d.dec.InputOffset()-d.fed:])) > 0 {
		return errors.New("trailing data after JSON document")
	}
	if recycle {
		d.fed += int64(len(data) - d.src.Len())
		strictDecoders.Put(d)
	}
	return nil
}

// strictDecoder is StrictUnmarshal's json.Decoder, kept for reuse: a
// decoder copies its input into a buffer it grows by doubling from 512
// bytes, and a recycled one reads the next document into the buffer it
// already grew. It reads each document from src, reset per call. fed
// counts the bytes it has read from all earlier documents; what it read
// but did not consume is the white space after the last one, which it
// skips before the next, so data[InputOffset()-fed:] is what follows
// the document just decoded.
type strictDecoder struct {
	src bytes.Reader
	dec *json.Decoder
	fed int64
}

func newStrictDecoder() *strictDecoder {
	d := new(strictDecoder)
	d.dec = json.NewDecoder(&d.src)
	d.dec.DisallowUnknownFields()
	return d
}

var strictDecoders = sync.Pool{New: func() any { return newStrictDecoder() }}

// maxRecycledDocument bounds the documents StrictUnmarshal reads with a
// recycled decoder, and so the buffer one keeps: a sweep file can be
// megabytes, a unit, scenario or result is a few kilobytes.
const maxRecycledDocument = 64 << 10

// ---- result codec ----

type resultJSON struct {
	Version   int                   `json:"version"`
	Scenario  string                `json:"scenario,omitempty"`
	Engine    string                `json:"engine,omitempty"`
	Index     int                   `json:"index"`
	Status    Status                `json:"status"`
	Violation explore.ViolationKind `json:"violation,omitempty"`
	SATStatus sat.Status            `json:"sat_status,omitempty"`
	Cached    bool                  `json:"cached,omitempty"`
	Stats     *statsJSON            `json:"stats,omitempty"`
	Trace     *traceJSON            `json:"trace,omitempty"`
	Err       string                `json:"error,omitempty"`
}

type statsJSON struct {
	States      int     `json:"states,omitempty"`
	MaxDepth    int     `json:"max_depth,omitempty"`
	Exhausted   bool    `json:"exhausted,omitempty"`
	Capped      bool    `json:"capped,omitempty"`
	MissProb    float64 `json:"miss_prob,omitempty"`
	PrimaryVars int     `json:"primary_vars,omitempty"`
	AuxVars     int     `json:"aux_vars,omitempty"`
	Clauses     int     `json:"clauses,omitempty"`
	TranslateNS int64   `json:"translate_ns,omitempty"`
	SolveNS     int64   `json:"solve_ns,omitempty"`
	Conflicts   int64   `json:"conflicts,omitempty"`
	Props       int64   `json:"propagations,omitempty"`
	LearntCl    int64   `json:"learnt_clauses,omitempty"`
	Runs        int     `json:"runs,omitempty"`
	Converged   int     `json:"converged,omitempty"`
	Deliveries  int     `json:"deliveries,omitempty"`
	Dropped     int     `json:"dropped,omitempty"`
	Duplicated  int     `json:"duplicated,omitempty"`
	WallNS      int64   `json:"wall_ns,omitempty"`
}

type traceJSON struct {
	ItemNames []string        `json:"item_names,omitempty"`
	Steps     []traceStepJSON `json:"steps,omitempty"`
}

type traceStepJSON struct {
	Label  string           `json:"label,omitempty"`
	Agents []traceAgentJSON `json:"agents,omitempty"`
}

type traceAgentJSON struct {
	ID     int     `json:"id"`
	Bids   []int64 `json:"bids,omitempty"`
	Winner []int   `json:"winner,omitempty"`
	Bundle []int   `json:"bundle,omitempty"`
}

// EncodeResult renders a Result as canonical versioned JSON. Err is
// flattened to its message. A cached verdict's line is built once
// (encodedLine); every hit splices its own name, index and cached flag
// into those bytes.
func EncodeResult(r *Result) ([]byte, error) {
	if r.line != nil {
		if data := r.line.splice(r); data != nil {
			return data, nil
		}
	}
	return encodeResult(r)
}

func encodeResult(r *Result) ([]byte, error) {
	w := resultJSON{
		Version:   SchemaVersion,
		Scenario:  r.Scenario,
		Engine:    r.Engine,
		Index:     r.Index,
		Status:    r.Status,
		Violation: r.Violation,
		SATStatus: r.SATStatus,
		Cached:    r.Cached,
	}
	if st := (statsJSON{
		States:      r.Stats.States,
		MaxDepth:    r.Stats.MaxDepth,
		Exhausted:   r.Stats.Exhausted,
		Capped:      r.Stats.Capped,
		MissProb:    r.Stats.MissProb,
		PrimaryVars: r.Stats.PrimaryVars,
		AuxVars:     r.Stats.AuxVars,
		Clauses:     r.Stats.Clauses,
		TranslateNS: int64(r.Stats.TranslateTime),
		SolveNS:     int64(r.Stats.SolveTime),
		Conflicts:   r.Stats.Conflicts,
		Props:       r.Stats.Propagations,
		LearntCl:    r.Stats.LearntClauses,
		Runs:        r.Stats.Runs,
		Converged:   r.Stats.Converged,
		Deliveries:  r.Stats.Deliveries,
		Dropped:     r.Stats.Dropped,
		Duplicated:  r.Stats.Duplicated,
		WallNS:      int64(r.Stats.Wall),
	}); st != (statsJSON{}) {
		w.Stats = &st
	}
	if r.Trace != nil {
		tw := &traceJSON{ItemNames: r.Trace.ItemNames}
		for _, step := range r.Trace.Steps() {
			sw := traceStepJSON{Label: step.Label}
			for _, a := range step.Agents {
				sw.Agents = append(sw.Agents, traceAgentJSON{ID: a.ID, Bids: a.Bids, Winner: a.Winner, Bundle: a.Bundle})
			}
			tw.Steps = append(tw.Steps, sw)
		}
		w.Trace = tw
	}
	w.Err = errText(r.Err)
	return json.Marshal(w)
}

// encodedLine is the encoding of a cached verdict, kept beside it: the
// Result the cache stores points to one, every hit copied out of the
// cache shares it, and it goes with the entry when the entry is
// overwritten or evicted. The bytes are built by the first EncodeResult
// of the stored verdict: its first hit's, or the write of a disk or peer
// tier, which needs those bytes anyway. A verdict that a memory-only
// cache stores and never serves is never encoded.
type encodedLine struct {
	// base is the stored verdict with the fields a hit sets — Scenario,
	// Index, Cached — zeroed; err is its error message.
	base Result
	err  string

	once sync.Once
	// data is encodeResult of base with Cached set; nil if that failed.
	// The three offsets split it around what a hit splices in: the
	// scenario goes at name, the index replaces the 0 at index, and
	// cachedMember starts at cached.
	data                []byte
	name, index, cached int
}

// cachedMember is how the encoder writes Cached. Between the index and
// it come only tokens and the engine name, a string in which encoding/json
// escapes every quote, so its first occurrence past the index is the
// member itself.
const cachedMember = `,"cached":true`

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
	out := make([]byte, 0, len(l.data)+len(`,"scenario":""`)+len(r.Scenario)+21)
	out = append(out, l.data[:l.name]...)
	if r.Scenario != "" {
		out = append(out, `,"scenario":`...)
		out = appendJSONString(out, r.Scenario)
	}
	out = append(out, l.data[l.name:l.index]...)
	out = strconv.AppendInt(out, int64(r.Index), 10)
	out = append(out, l.data[l.index+1:l.cached]...)
	if r.Cached {
		out = append(out, cachedMember...)
	}
	return append(out, l.data[l.cached+len(cachedMember):]...)
}

func (l *encodedLine) build() {
	r := l.base
	r.Cached = true
	data, err := encodeResult(&r)
	if err != nil {
		return
	}
	// The document opens with the version, a number; with no scenario,
	// the first comma ends it.
	name := bytes.IndexByte(data, ',')
	index := bytes.Index(data, []byte(`"index":0`))
	if name < 0 || index < 0 {
		return
	}
	index += len(`"index":`)
	cached := bytes.Index(data[index:], []byte(cachedMember))
	if cached < 0 {
		return
	}
	l.data, l.name, l.index, l.cached = data, name, index, index+cached
}

// appendJSONString appends s as encoding/json writes a string. Names of
// printable ASCII without the characters it escapes are copied; any
// other name is left to encoding/json itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// DecodeResult parses a canonical result document. Err comes back as a
// plain error carrying the original message (sentinel identity such as
// context.Canceled is not preserved).
func DecodeResult(data []byte) (Result, error) {
	var w resultJSON
	if err := StrictUnmarshal(data, &w); err != nil {
		return Result{}, fmt.Errorf("engine: result: %w", err)
	}
	if w.Version != SchemaVersion {
		return Result{}, fmt.Errorf("engine: result: unsupported schema version %d (want %d)", w.Version, SchemaVersion)
	}
	r := Result{
		Scenario:  w.Scenario,
		Engine:    w.Engine,
		Index:     w.Index,
		Status:    w.Status,
		Violation: w.Violation,
		SATStatus: w.SATStatus,
		Cached:    w.Cached,
	}
	if w.Stats != nil {
		r.Stats = Stats{
			States:        w.Stats.States,
			MaxDepth:      w.Stats.MaxDepth,
			Exhausted:     w.Stats.Exhausted,
			Capped:        w.Stats.Capped,
			MissProb:      w.Stats.MissProb,
			PrimaryVars:   w.Stats.PrimaryVars,
			AuxVars:       w.Stats.AuxVars,
			Clauses:       w.Stats.Clauses,
			TranslateTime: time.Duration(w.Stats.TranslateNS),
			SolveTime:     time.Duration(w.Stats.SolveNS),
			Conflicts:     w.Stats.Conflicts,
			Propagations:  w.Stats.Props,
			LearntClauses: w.Stats.LearntCl,
			Runs:          w.Stats.Runs,
			Converged:     w.Stats.Converged,
			Deliveries:    w.Stats.Deliveries,
			Dropped:       w.Stats.Dropped,
			Duplicated:    w.Stats.Duplicated,
			Wall:          time.Duration(w.Stats.WallNS),
		}
	}
	if w.Trace != nil {
		rec := trace.NewRecorder()
		rec.ItemNames = w.Trace.ItemNames
		for _, sw := range w.Trace.Steps {
			step := trace.Step{Label: sw.Label}
			for _, a := range sw.Agents {
				step.Agents = append(step.Agents, trace.AgentSnapshot{ID: a.ID, Bids: a.Bids, Winner: a.Winner, Bundle: a.Bundle})
			}
			rec.Record(step)
		}
		r.Trace = rec
	}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	// A decoded result is what a cache's disk and peer tiers hand to its
	// memory tier, so it carries a line like a stored one.
	return withLine(r), nil
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

// DecodeSummary parses a summary document.
func DecodeSummary(data []byte) (Summary, error) {
	var w summaryJSON
	if err := StrictUnmarshal(data, &w); err != nil {
		return Summary{}, fmt.Errorf("engine: summary: %w", err)
	}
	if w.Version != SchemaVersion {
		return Summary{}, fmt.Errorf("engine: summary: unsupported schema version %d (want %d)", w.Version, SchemaVersion)
	}
	s := Summary{
		Total:        w.Total,
		Holds:        w.Holds,
		Violated:     w.Violated,
		Inconclusive: w.Inconclusive,
		Errors:       w.Errors,
		Capped:       w.Capped,
		CacheHits:    w.CacheHits,
		Violations:   w.Violations,
		Scenarios:    w.Scenarios,
		Wall:         time.Duration(w.WallNS),
	}
	if s.Violations == nil {
		s.Violations = map[explore.ViolationKind]int{}
	}
	return s, nil
}

// ---- content addressing ----

// CacheKey returns the content address of (scenario, engine): the
// SHA-256 of the engine's full descriptor — its Go type and every
// configuration field, not just its display name, since fields like
// Simulation's Runs and Seed change verdicts — and the canonical
// scenario encoding with the display name blanked, so two identically
// configured scenarios hit the same cache entry regardless of how they
// are labelled. Auto resolves to its per-scenario delegate, so
// auto-scheduled work shares entries with direct engine calls; nil
// means Auto. An engine that only decides where another runs (the
// fleet's remote executor) exposes it through Unwrap() Engine and is
// addressed as that engine: one verdict, one address, wherever it was
// computed. It returns EncodeScenario's error for a scenario the codec
// cannot encode, which Validate would have rejected.
func CacheKey(s *Scenario, e Engine) (string, error) {
	canonical, err := encodeUnnamed(s)
	if err != nil {
		return "", err
	}
	return contentAddress(canonical, s, e), nil
}

// encodeUnnamed is the canonical encoding CacheKey hashes: the scenario
// with its display name blanked.
func encodeUnnamed(s *Scenario) ([]byte, error) {
	unnamed := *s
	unnamed.Name = ""
	return EncodeScenario(&unnamed)
}

// contentAddress hashes the engine descriptor and canonical, which must
// be encodeUnnamed(s) — CacheKey computes it, a decoded sweep carries
// it. s itself is read only to resolve Auto.
func contentAddress(canonical []byte, s *Scenario, e Engine) string {
	return (*descriptors)(nil).address(canonical, s, e)
}

// descriptors memoizes the descriptor contentAddress hashes, per
// addressed engine value. A Runner holds one for its lifetime — one
// request — so it holds one entry per distinct engine of that request;
// a nil *descriptors formats on every call.
type descriptors struct {
	m sync.Map // Engine → []byte
}

// address is contentAddress with the descriptor from d.
func (d *descriptors) address(canonical []byte, s *Scenario, e Engine) string {
	h := sha256.New()
	h.Write(d.of(addressedEngine(e, s)))
	h.Write(canonical)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// of returns the descriptor of e, formatted once per comparable engine
// value (formatting runs no lock, so workers that meet a new engine at
// the same moment may each format it; one result is kept). A value that
// is not comparable cannot be a map key and is formatted on every call.
func (d *descriptors) of(e Engine) []byte {
	if d == nil || !reflect.ValueOf(e).Comparable() {
		return descriptor(e)
	}
	if desc, ok := d.m.Load(e); ok {
		return desc.([]byte)
	}
	desc, _ := d.m.LoadOrStore(e, descriptor(e))
	return desc.([]byte)
}

// addressedEngine is the engine a content address names: e resolved for
// s, with the fields that do not change a verdict normalized.
func addressedEngine(e Engine, s *Scenario) Engine {
	e = resolveEngine(e, s)
	// Normalize defaulted fields so Simulation{} and Simulation{Runs:16}
	// — the same verification — share one address.
	if sim, ok := e.(Simulation); ok {
		e = sim.withDefaults()
	}
	// Explicit{Workers: n} runs the same DFS as Explicit{}.
	if ex, ok := e.(Explicit); ok {
		e = ex.addressed()
	}
	// The session pool is a runtime handle, not configuration: an
	// incremental run returns the same verdict as a one-shot run of the
	// same scenario, so both share one address (and the pointer would
	// make the key nondeterministic anyway).
	if se, ok := e.(SAT); ok {
		se.Sessions = nil
		e = se
	}
	return e
}

// descriptor is the prefix of every content address of engine e: %T
// pins the adapter type, %+v its configuration in declared field order
// — deterministic for the flat engine structs.
func descriptor(e Engine) []byte {
	return fmt.Appendf(nil, "epoch%d %T%+v\n", CacheEpoch, e, e)
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
// address. Either way an encodedVerifier is handed the bytes. d is the
// caller's descriptor memo, or nil.
//
// This is also where a panic inside an engine is contained, once, for
// every caller — the Runner's pool goroutines, mcaserved's /verify, a
// fleet worker's /fleet/work, the differential oracle's legs: it becomes
// this scenario's error result (logged with its stack) instead of
// ending the process, the way net/http contains a panicking handler.
// Engines that start goroutines re-raise a goroutine's panic on the one
// that called them, so it arrives here too.
func verifyCached(ctx context.Context, eng Engine, s Scenario, canonical []byte, c ResultCache, d *descriptors) (res Result) {
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("engine: scenario %q: panic in %s: %v", s.Name, eng.Name(), p)
			log.Printf("%v\n%s", err, debug.Stack())
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
			key = d.address(canonical, &s, eng)
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
		stored := res
		stored.Cached = false
		c.Put(key, withLine(stored))
	}
	return res
}
