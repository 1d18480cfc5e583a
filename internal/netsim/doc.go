// Package netsim simulates the asynchronous message network between MCA
// agents: one logical channel per directed edge of the agent graph,
// holding unprocessed bid messages in transit. It corresponds to the
// buffMsgs relation of the paper's netState signature.
//
// Two layers use it: the randomized asynchronous runner here (Simulator,
// and RunAsync, one run of it on a reliable network — seeded, for
// simulation experiments), and the exhaustive interleaving explorer in
// internal/explore (which drives Network directly, snapshotting and
// rolling back channel queues).
//
// Faults models the adversarial networks the paper's Alloy model cannot
// express: global and per-edge message drop probabilities, fixed and
// per-edge delivery delays, at-least-once duplication (Duplicate),
// bounded in-channel reordering (Reorder), and network partitions that
// may heal at a tick. Permanent partitions are purely structural
// (StaticPartitionOnly), which is why the exhaustive engines can check
// them exactly on the partition-masked graph, while probabilistic and
// timed faults belong to the seeded simulation.
//
// Determinism: a Simulator run is deterministic in (agents, graph,
// faults, seed, delivery budget) — the delivery schedule and every fault
// coin flip derive from the seed, through a PCG (math/rand/v2) — so
// simulation verdicts are reproducible and cacheable. A Simulator reused
// across runs gives each run exactly what a fresh one would. A Network value is
// single-goroutine state; checkers that parallelize keep one replica
// per worker.
package netsim
