package mcamodel

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/engine"
)

// The engine codec serializes relational models through a registry of
// named codecs; this file registers the "mca-model" kind, so any
// program that imports mcamodel (directly or via the mcaverify facade)
// can round-trip SAT scenarios as JSON. The spec document is the
// encoding name plus the scope:
//
//	{"kind": "mca-model", "spec": {"encoding": "optimized",
//	  "scope": {"pnodes": 3, "vnodes": 2, "values": 4, "states": 3, "msgs": 2}}}
//
// Encode writes the built model's (defaulted) scope; because
// withDefaults is idempotent, decode-then-re-encode reproduces the
// bytes exactly, as the engine codec's canonical-round-trip contract
// requires.

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

// Encodings is the encoding vocabulary of the model spec and of
// generator profiles: each token with the constructor it names.
var Encodings = map[string]func(Scope) (*Encoding, error){
	"naive":     BuildNaive,
	"optimized": BuildOptimized,
}

func init() {
	engine.RegisterModelCodec(engine.ModelCodec{
		Kind:   "mca-model",
		Encode: encodeModelSpec,
		Decode: decodeModelSpec,
	})
}

func encodeModelSpec(m engine.RelationalModel) (json.RawMessage, bool, error) {
	e, ok := m.(*Encoding)
	if !ok {
		return nil, false, nil
	}
	if Encodings[e.Name] == nil {
		return nil, false, fmt.Errorf("mcamodel: encoding %q is not a buildable variant (want naive|optimized)", e.Name)
	}
	spec, err := json.Marshal(modelSpecJSON{
		Encoding: e.Name,
		Scope: scopeJSON{
			PNodes:      e.Scope.PNodes,
			VNodes:      e.Scope.VNodes,
			Values:      e.Scope.Values,
			States:      e.Scope.States,
			Msgs:        e.Scope.Msgs,
			IntBitwidth: e.Scope.IntBitwidth,
			Triples:     e.Scope.Triples,
			BidVectors:  e.Scope.BidVectors,
		},
		AssertState: e.AssertState,
	})
	if err != nil {
		return nil, false, err
	}
	return spec, true, nil
}

func decodeModelSpec(spec json.RawMessage) (engine.RelationalModel, error) {
	dec := json.NewDecoder(bytes.NewReader(spec))
	dec.DisallowUnknownFields()
	var w modelSpecJSON
	if err := dec.Decode(&w); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data after model spec")
	}
	sc := Scope{
		PNodes:      w.Scope.PNodes,
		VNodes:      w.Scope.VNodes,
		Values:      w.Scope.Values,
		States:      w.Scope.States,
		Msgs:        w.Scope.Msgs,
		IntBitwidth: w.Scope.IntBitwidth,
		Triples:     w.Scope.Triples,
		BidVectors:  w.Scope.BidVectors,
	}
	build := Encodings[w.Encoding]
	if build == nil {
		return nil, fmt.Errorf("mcamodel: unknown encoding %q (want naive|optimized)", w.Encoding)
	}
	e, err := build(sc)
	if err != nil {
		return nil, err
	}
	if w.AssertState != 0 {
		return e.WithAssertState(w.AssertState)
	}
	return e, nil
}
