package mcamodel

import (
	"fmt"

	"repro/internal/relalg"
)

// Scope fixes the model size, mirroring "for 3 pnode, 2 vnode, ...".
type Scope struct {
	PNodes int // physical nodes (agents)
	VNodes int // virtual nodes (items)
	Values int // bid magnitude atoms actually needed (optimized encoding)
	States int // trace length (netState atoms)
	Msgs   int // message atoms
	// IntBitwidth is the Alloy-style integer bitwidth used by the NAIVE
	// encoding: like Alloy's predefined Int, it materializes 2^bitwidth
	// integer atoms regardless of how many bid magnitudes the model
	// actually needs — one of the two inefficiencies (together with the
	// wide relations) that the paper's optimized model removes. Zero
	// defaults to 4, Alloy's default bitwidth.
	IntBitwidth int
	// Triples bounds the bidTriple pool (optimized encoding only);
	// zero derives a default from the other dimensions.
	Triples int
	// BidVectors bounds the bidVector pool (optimized encoding only);
	// zero derives PNodes*States.
	BidVectors int
}

// PaperScope is the scope of the paper's efficiency experiment:
// 3 physical nodes and 2 virtual nodes.
func PaperScope() Scope {
	return Scope{PNodes: 3, VNodes: 2, Values: 4, States: 3, Msgs: 2, IntBitwidth: 4}
}

func (sc Scope) withDefaults() Scope {
	if sc.IntBitwidth == 0 {
		sc.IntBitwidth = 4
	}
	if sc.Triples == 0 {
		sc.Triples = sc.VNodes * sc.PNodes * 2
	}
	if sc.BidVectors == 0 {
		sc.BidVectors = sc.PNodes * sc.States
	}
	return sc
}

// Ceilings on a scope. They sit far above anything a SAT check finishes
// on, and keep the largest build near 55 MB: a scope read from a
// document must not make a builder allocate without bound (the naive
// encoding has 2^IntBitwidth integer atoms, and every dimension
// multiplies into the relations' upper bounds).
const (
	// MaxScopeSize bounds PNodes, VNodes, Values, States and Msgs.
	MaxScopeSize = 8
	// MaxIntBitwidth bounds IntBitwidth.
	MaxIntBitwidth = 8
	// MaxPool bounds Triples and BidVectors.
	MaxPool = 256
)

// Validate rejects degenerate scopes and scopes past the ceilings.
func (sc Scope) Validate() error {
	if sc.PNodes < 1 || sc.VNodes < 1 || sc.Values < 2 || sc.States < 2 || sc.Msgs < 1 {
		return fmt.Errorf("mcamodel: degenerate scope %+v", sc)
	}
	if max(sc.PNodes, sc.VNodes, sc.Values, sc.States, sc.Msgs) > MaxScopeSize ||
		sc.IntBitwidth < 0 || sc.IntBitwidth > MaxIntBitwidth ||
		min(sc.Triples, sc.BidVectors) < 0 || max(sc.Triples, sc.BidVectors) > MaxPool {
		return fmt.Errorf("mcamodel: scope %+v past the ceilings (sizes at most %d, IntBitwidth at most %d, Triples and BidVectors at most %d)",
			sc, MaxScopeSize, MaxIntBitwidth, MaxPool)
	}
	return nil
}

// String renders the scope.
func (sc Scope) String() string {
	return fmt.Sprintf("%dp/%dv/%dval/%dst/%dmsg", sc.PNodes, sc.VNodes, sc.Values, sc.States, sc.Msgs)
}

// Encodings is the encoding vocabulary of scenario documents and of
// generator profiles: each token with the builder it names.
var Encodings = map[string]func(Scope) (*Encoding, error){
	"naive":     BuildNaive,
	"optimized": BuildOptimized,
}

// Encoding is a fully built model: bounds plus the background (facts and
// transition system) and the consensus assertion — the bounded
// relational problem a Scenario's Model carries to the SAT engine.
type Encoding struct {
	Name       string
	Scope      Scope
	Bounds     *relalg.Bounds
	Background relalg.Formula
	// Consensus is the assertion: the asserted state satisfies
	// consensusPred (all agents agree on winners and winning bids). By
	// default that is the final trace state; see WithAssertState.
	Consensus relalg.Formula
	// AssertState records which trace state Consensus ranges over:
	// 0 means the final state (the default), k > 0 the 1-based state k.
	// Variants of one builder and scope that differ only here share
	// bounds and background — the shape the engine's incremental SAT
	// sessions solve without re-translating.
	AssertState int

	// consensusAt rebuilds the consensus assertion over a 0-based trace
	// state, closing over the builder's relations.
	consensusAt func(stateIdx int) relalg.Formula
	// built is what the builder or WithAssertState made, kept so Family
	// can tell when an exported field was replaced afterwards.
	built built
}

// Family names what a builder made: the encoding, the scope with its
// defaults filled in, and the assert state — the fields a scenario
// document writes for a model. Builders are deterministic, so two
// encodings of one family have the same bounds and formulas up to the
// identity of their relations, and translate to the same CNF.
type Family struct {
	Encoding    string
	Scope       Scope
	AssertState int
}

// built records an encoding as its builder made it.
type built struct {
	family                Family
	bounds                *relalg.Bounds
	background, consensus relalg.Formula
}

// seal records the encoding's exported fields as built.
func (e *Encoding) seal() *Encoding {
	e.built = built{Family{e.Name, e.Scope, e.AssertState}, e.Bounds, e.Background, e.Consensus}
	return e
}

// Family returns the encoding's family, and false unless the encoding
// came from a builder or WithAssertState and none of its exported
// fields has been replaced since: only then do the fields name the
// formulas it carries. Edits inside the bounds it points at are not
// seen.
func (e *Encoding) Family() (Family, bool) {
	b := e.built
	return b.family, b.bounds != nil && b.family == Family{e.Name, e.Scope, e.AssertState} &&
		b.bounds == e.Bounds && b.background == e.Background && b.consensus == e.Consensus
}

// ConsensusAt returns the consensus assertion over the given 0-based
// trace state, built over this encoding's own bounds and relations.
func (e *Encoding) ConsensusAt(stateIdx int) (relalg.Formula, error) {
	if e.consensusAt == nil {
		return nil, fmt.Errorf("mcamodel: encoding %q was not produced by a builder; no per-state consensus available", e.Name)
	}
	if stateIdx < 0 || stateIdx >= e.Scope.States {
		return nil, fmt.Errorf("mcamodel: assert state %d out of range [0,%d)", stateIdx, e.Scope.States)
	}
	return e.consensusAt(stateIdx), nil
}

// WithAssertState returns a copy of the encoding whose consensus
// assertion ranges over the given trace state: 0 selects the final
// state (the builder default), k > 0 the 1-based state k. The copy
// shares bounds and background with the receiver, so a sweep over
// assert states is an incremental-SAT-friendly variant family; on any
// encoding of the same builder and scope, WithAssertState(k) rebuilds
// the same assertion over that encoding's own relations.
func (e *Encoding) WithAssertState(k int) (*Encoding, error) {
	if k < 0 {
		return nil, fmt.Errorf("mcamodel: negative assert state %d", k)
	}
	out := *e
	out.AssertState = k
	idx := e.Scope.States - 1
	if k > 0 {
		idx = k - 1
	}
	f, err := e.ConsensusAt(idx)
	if err != nil {
		return nil, err
	}
	out.Consensus = f
	if _, ok := e.Family(); ok {
		// A replaced field of the receiver stays visible in the copy.
		out.seal()
	}
	return &out, nil
}

// atomNames generates prefixed atom names.
func atomNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s$%d", prefix, i)
	}
	return out
}

// exactUnary bounds rel to exactly the named atoms.
func exactUnary(b *relalg.Bounds, rel *relalg.Relation, names []string) {
	ts := relalg.NewTupleSet(b.Universe(), 1)
	for _, n := range names {
		ts.AddNames(n)
	}
	b.BoundExactly(rel, ts)
}

// exactChain bounds rel to the successor chain over the named atoms.
func exactChain(b *relalg.Bounds, rel *relalg.Relation, names []string) {
	ts := relalg.NewTupleSet(b.Universe(), 2)
	for i := 0; i+1 < len(names); i++ {
		ts.AddNames(names[i], names[i+1])
	}
	b.BoundExactly(rel, ts)
}

// exactOrder bounds rel to the strict total order (i < j pairs).
func exactOrder(b *relalg.Bounds, rel *relalg.Relation, names []string) {
	ts := relalg.NewTupleSet(b.Universe(), 2)
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			ts.AddNames(names[i], names[j])
		}
	}
	b.BoundExactly(rel, ts)
}

// upperProduct bounds rel's upper bound to the product of the given atom
// groups (arity = number of groups).
func upperProduct(b *relalg.Bounds, rel *relalg.Relation, groups ...[]string) {
	u := b.Universe()
	ts := relalg.NewTupleSet(u, len(groups))
	var rec func(d int, t relalg.Tuple)
	rec = func(d int, t relalg.Tuple) {
		if d == len(groups) {
			ts.Add(append(relalg.Tuple{}, t...))
			return
		}
		for _, name := range groups[d] {
			rec(d+1, append(t, u.AtomIndex(name)))
		}
	}
	rec(0, nil)
	b.BoundUpper(rel, ts)
}
