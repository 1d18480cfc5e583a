// Package mcamodel encodes the paper's Alloy model of the Max-Consensus
// Auction — applied to the virtual network mapping problem — on the
// relational kernel, in the two variants Section IV compares:
//
//   - the Naive encoding uses wide relations (the ternary initBids /
//     msgBids relations and quaternary state-indexed bid and winner
//     relations) together with an explicit integer-order relation, the
//     way the paper's first model used Alloy ternary relations and Int;
//   - the Optimized encoding factors every wide relation through
//     bidTriple and bidVector atoms connected by binary fields, and
//     replaces integers with a value signature ordered by a succ chain —
//     the abstractions the paper introduced to shrink the SAT translation
//     from ≈259K to ≈190K clauses at scope (3 pnodes, 2 vnodes).
//
// Both encodings express the same bounded-trace semantics: an initial
// bidding state, one bid message processed per transition (the
// stateTransition fact), a max-bid update rule at the receiver with
// frame conditions, and the consensus predicate over the final state.
// Experiment E5 builds both at the same scope and compares clause
// counts and translation/solve times.
//
// Key types: Scope (the "for 3 pnode, 2 vnode, ..." bounds; PaperScope
// is the paper's), Encoding (a built model: bounds, background facts,
// consensus assertion — the type of a Scenario's Model field),
// BuildNaive and BuildOptimized (the Encodings vocabulary), plus
// Measurement/MeasureTranslation for the efficiency experiment.
// Building and measuring are deterministic in the Scope.
//
// The package sits below the engine layer and imports only relalg and
// sat: the engine owns the model's "mca-model" document format and
// checks an Encoding with engine.SAT.
package mcamodel
