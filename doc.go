// Package mcaverify is the public API of the MCA verification library:
// a Go reproduction of "An Alloy Verification Model for Consensus-Based
// Auction Protocols" (Mirzaei & Esposito, ICDCS 2015), grown into a
// standalone verification stack for the Max-Consensus Auction protocol.
//
// The library provides six layers:
//
//   - the Max-Consensus Auction protocol itself (agents, policies, the
//     asynchronous conflict-resolution table, synchronous and randomized
//     asynchronous runners);
//   - a verification stack that replaces the Alloy Analyzer: an
//     explicit-state bounded model checker over all message
//     interleavings, and a relational-logic-to-SAT pipeline with the
//     paper's MCA model in its naive and optimized encodings;
//   - the engine layer that unifies those checkers: a Scenario value
//     describes what to verify (agents, topology, network semantics and
//     fault model, bounds), Verify checks it on any backend with
//     context cancellation, and Runner sweeps thousands of scenarios
//     concurrently with deterministic aggregation;
//   - scenarios as data: EncodeScenario/DecodeScenario round-trip
//     scenarios through canonical versioned JSON, ExpandSweep expands
//     parameter-grid sweep files, and NewCache builds the
//     content-addressed result cache that lets repeated sweeps skip
//     already-verified scenarios (cmd/mcaserved serves all of this
//     over HTTP);
//   - scenarios as manufactured workloads: Generate derives seeded
//     random corpora from a FuzzProfile, DiffSweep cross-checks the
//     engine adapters' verdicts on them, and ShrinkFailure minimizes
//     failing scenarios by delta debugging (cmd/mcafuzz drives the
//     pipeline; docs/FUZZING.md specifies it);
//   - the virtual network mapping case study (MCA node auction plus
//     k-shortest-path link mapping).
//
// Everything is deterministic by construction: agents are pure state
// machines, simulations derive every coin flip from their seed, the
// parallel checkers return the same verdicts and counterexamples at any
// worker count, and canonical scenario encoding makes verification
// results content-addressable.
//
// Quick start:
//
//	pol := mcaverify.Policy{Target: 2, Utility: mcaverify.SubmodularResidual{}, Rebid: mcaverify.RebidOnChange}
//	s := mcaverify.Scenario{
//		Name: "demo",
//		AgentSpecs: []mcaverify.AgentConfig{
//			{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol},
//			{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol},
//		},
//		Graph: mcaverify.CompleteGraph(2),
//	}
//	res := mcaverify.Verify(context.Background(), s, nil) // nil = natural backend
//	fmt.Println(res.Status)                               // holds
package mcaverify
