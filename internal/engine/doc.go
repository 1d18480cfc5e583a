// Package engine unifies every checker in the repository behind one
// Scenario/Engine abstraction. The paper's contribution is checking one
// MCA model many ways — Alloy-style explicit bounds, naive vs optimized
// relational encodings, synchronous vs asynchronous networks — and this
// package makes "one model, many checkers" a first-class production
// workload:
//
//   - a Scenario is a plain value describing what to verify: the agents
//     (as rebuildable configs), the agent graph, the network semantics
//     and fault model, the property bounds, and optionally the bounded
//     relational model for the SAT backends (an mcamodel.Encoding);
//   - an Engine turns a Scenario into a unified Result under a
//     context.Context (cancellation and deadlines are plumbed down to
//     the DFS and the SAT search loops). Three adapters cover the
//     verification stack: Explicit (the serial DFS, with
//     checkpoint/resume), SAT (naive/optimized encoding ×
//     serial/portfolio solving), and Simulation (seeded randomized
//     runs under network fault models the Alloy model cannot express);
//   - a Runner streams Results from a worker pool over scenario sets,
//     making policy sweeps, substrate sweeps, scale sweeps, and
//     adversarial-network sweeps batch workloads with deterministic
//     aggregation at any worker count.
//
// Scenarios are also first-class data. EncodeScenario/DecodeScenario
// round-trip a Scenario through a canonical, versioned, strictly
// validated JSON document (docs/SCENARIO_FORMAT.md), the model's
// "mca-model" section included, and every scenario Validate accepts
// encodes; DecodeSweep turns
// a sweep document — a base scenario plus axes of named variants — into
// a Sweep, the cartesian scenario grid (ExpandSweep returns just its
// scenarios); EncodeWorkUnit/DecodeWorkUnit do the same for the
// fleet's work units (a scenario, an engine spec and a dispatch index in
// one document). Every one of these decoders reads through one hand
// reader (wire.go) in a single pass, with no reflection: it accepts
// exactly what a strict encoding/json decode into the wire structs
// accepts — unknown members and trailing data refused — and the matching
// writer produces exactly json.Marshal's bytes. A Result has one
// spelling, written by one writer that records the spans a hit splices
// and read, beside it in line.go, by DecodeResult and no other reader,
// which keeps the bytes it read as the Result's encoding.
// Canonical encoding gives every scenario a content address (CacheKey),
// which RunnerOptions.Cache uses to skip already-verified scenarios:
// repeated sweeps only pay for cells whose content changed.
// internal/cache provides the standard ResultCache; cmd/mcaserved
// serves the whole layer over HTTP.
//
// A Sweep decodes each distinct section value of the grid once and
// carries, beside every cell's Scenario, the canonical bytes its
// content address hashes; Runner.StreamSweep addresses cells from those
// bytes and returns each Result already encoded by the worker that
// produced it. The bytes live in the Sweep, never in the Scenario: a
// Scenario is a value to copy and vary, and a varied copy must not
// carry the encoding of the original.
//
// The scenario contract lives here, once. Scenario.Validate is every
// well-formedness rule: the decoders only convert and end in it, and
// Applicable — which every adapter's Verify starts with, Auto routes by
// and gen's oracle skips by — calls it before answering whether the
// engine can run the scenario. Enum tokens are not here: each enum's
// table sits beside its type (mca, explore, sat, graph; Status in this
// package) and the wire structs hold the typed values. A panic inside
// an engine is contained in VerifyCached as that scenario's error
// Result, for every caller alike.
//
// Determinism contract: a Result depends only on (Scenario, Engine
// value) — never on worker counts, scheduling, or cache state. The
// Runner's Summary depends only on the multiset of Results, and cached
// results are byte-for-byte the results the engines produced.
package engine
