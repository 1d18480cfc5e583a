// Package explore is the explicit-state bounded model checker for MCA
// dynamics. It plays the role of the Alloy Analyzer over the paper's
// dynamic sub-model: the transition system whose states are the agents'
// views plus the buffer of in-transit bid messages, and whose
// transitions process one message at a time in any order (the
// stateTransition fact). The checker exhaustively enumerates delivery
// interleavings, quotients states by order-preserving relabeling of
// logical clocks, and reports one of:
//
//   - OK: every reachable execution reaches max-consensus (agreement on
//     winners and winning bids, conflict-free bundles) within the bound;
//   - an oscillation counterexample: a reachable cycle of states with
//     messages still flowing (the Fig. 2 instability);
//   - a bound violation: a path processing more than the D·|J|-derived
//     message budget without reaching consensus (the paper's consensus
//     assertion with its val parameter);
//   - a disagreement/conflict violation at quiescence.
//
// Key entry points: Check (serial DFS with queue capture/rollback and
// replay-built counterexample traces), CheckFrom (the same DFS with
// checkpoint/resume: a capped run's DFSState is its exact seen-set, its
// delivery path and its counters, and a resume replays the path and
// goes on from the cut, equal to the uninterrupted run), and Options
// (the val bound, state budget, queue depth, duplicate-delivery fault
// injection, and the cooperative Cancel hook the engine layer drives
// from contexts). CheckParallel, the sharded parallel frontier, is
// reached only by this package's tests and the repo benchmark: it is
// slower than the DFS at every worker count measured, and is kept
// until the benchmark stops timing it.
//
// Hot-path engineering — incremental canonical hashing with a
// reference-serializer crosscheck, compact open-addressing state
// stores (occupancy reported on Verdict.Store), pooled pointer-free
// frontier storage — is documented in docs/PERFORMANCE.md. The
// canonical key is one formula over per-component digests: each agent
// and each queued message digests its content together with the ranks
// of its timestamps under the state's time ranker, and keeps that
// digest while the ranker stays the same, so a key re-ranks only the
// receiver and the queue cells a delivery changed (see keyScratch).
// Both run-state formats store keys, so their magics (dfsStateMagic,
// runStateMagic) change with the key function.
//
// Determinism: both checkers are deterministic in (agents, graph,
// Options); CheckParallel additionally returns the same verdict and the
// same counterexample trace at every worker count — parallelism changes
// wall-clock only. The two are distinct algorithms: on a
// budget-truncated run which states were visited first differs, and
// the val-bound verdict is path-dependent, so neither stands in for
// the other.
package explore
