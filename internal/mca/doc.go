// Package mca implements the Max-Consensus Auction protocol — the common
// core of consensus-based auction algorithms (CBBA-style task allocation,
// distributed virtual network embedding, distributed economic dispatch)
// that the paper extracts and names MCA.
//
// The protocol has two mechanisms:
//
//   - a bidding mechanism, where each agent greedily adds items to its
//     bundle, bidding its (policy-defined, possibly sub-modular) marginal
//     utility whenever that beats the highest bid it currently knows; and
//   - an agreement (max-consensus) mechanism, where agents exchange their
//     bid views with first-hop neighbors and resolve conflicts with an
//     asynchronous decision table keyed on who each side believes the
//     winner is, with bid-generation timestamps for out-of-order delivery.
//
// Both mechanisms are invariant; their variant aspects — the utility
// function (p_u), the release-outbid rule (p_RO), the rebid rule
// (Remark 1), and the target bundle size (p_T) — are Policy fields, so
// verification harnesses can sweep policy combinations exactly as the
// paper's Alloy model does.
//
// Key types: Agent (one participant, built from a Config), Policy with
// its Utility implementations (SubmodularResidual, NonSubmodularSynergy,
// FlatUtility, and the Result 2 EscalatingUtility attacker — the kinds
// UtilityKinds names), Message (a full bid view in transit), Resolver
// (the conflict table, Resolve; MaxMergeResolve is the ablation),
// SyncRunner (synchronous rounds), and Detector (the footnote-7
// rebid-attack countermeasure).
//
// Determinism: an Agent is a pure state machine — BidPhase and
// HandleMessage depend only on the agent's state and the message, ties
// break toward lower agent IDs, and all nondeterminism (message
// ordering, loss, delay) lives in the network layer above. That purity
// is what lets internal/explore enumerate interleavings exhaustively
// and lets every layer clone agents cheaply. Agents are not safe for
// concurrent use; concurrent checkers give each worker its own replica.
package mca
