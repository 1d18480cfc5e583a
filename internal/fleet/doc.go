// Package fleet scales sweep verification past one machine: the one
// scheduler every sweep uses — engine.Runner — runs each scenario on a
// worker process over HTTP instead of in-process, so results and
// Summary are a single-process Runner's by construction.
//
// The tier has two halves:
//
//   - Worker: an HTTP handler (POST /fleet/work, GET /fleet/health)
//     that verifies the 1 to 16 work units of a request, in order, on
//     one of its slots. A unit is a (scenario, engine-spec) pair in the
//     canonical codec form plus an index the worker echoes (the
//     coordinator's dispatch sequence number, so a reply to some other
//     unit is rejected); its codec is engine's (EncodeWorkUnit and
//     DecodeWorkUnit here delegate to it), and a worker reads a body's
//     units in one strict pass, refusing the whole body if one does not
//     decode. The worker rebuilds each engine, runs VerifyCached
//     against its own (optionally remote-tiered) cache, and answers one
//     encoded Result per line, in unit order. A request beyond the
//     slots is rejected with 429 + Retry-After rather than queued, so
//     the coordinator owns all scheduling policy.
//
//   - Coordinator: Runner → remote engine → worker. Coordinator.Runner
//     is an ordinary engine.Runner whose engine is the fleet: it
//     builds one work unit around the canonical scenario bytes the
//     Runner already holds (VerifyCached hands them over; only the
//     index and the name are encoded per unit, and the engine spec once
//     per Runner) and queues it. Pool, cache short-circuit and store
//     (engine.VerifyCached, keyed through the remote engine to the
//     engine it places), results by index and cancellation are the
//     Runner's own; the pool is 2 × 16 times the fleet's credit wide so
//     units queue. Tokens are dispatch credit: one pool per
//     coordinator, shared by concurrent batches, with as many tokens
//     per worker as the slots it advertises on /fleet/health (one until
//     it has answered) — a healthy fleet is never offered more than it
//     admits, so it never 429s itself. Up to credit carriers per Runner
//     each take a token and send the next share of its queue in one
//     POST: one unit until the Runner's last dispatch completed and its
//     worker stated under a millisecond per unit (X-Fleet-Work-Ns),
//     then up to ⌈queued ÷ credit⌉, at most 16, with UnitTimeout for
//     each unit it carries. Each reply line is read strictly and kept as its
//     Result's encoding (engine.DecodeResult), so the Runner
//     streams the worker's bytes with its own name and index spliced
//     in. A 429 means a worker admits fewer requests than its credit
//     (it restarted with fewer slots): the next batch asks it again,
//     and tokens above the new limit leave the pool when next drawn or
//     returned. A dispatch fails or succeeds as a whole; each of its
//     units then retries with exponential backoff on whichever worker
//     has credit next; a worker that keeps failing trips its circuit
//     breaker and fast-fails until a half-open probe dispatch succeeds;
//     a unit that exhausts its remote attempts (or cannot be encoded)
//     is verified locally, so a sweep always completes even with every
//     worker dead. Quiesce stops new dispatches (for connection
//     draining) while letting in-flight units finish. The retry policy
//     — 3 attempts, a 50ms backoff base, a breaker that opens after 2
//     consecutive failures with a 500ms cooldown, every delay doubled
//     and capped at 2s — and the batching rule are fixed in code, not
//     options.
//
// Determinism: verdicts are produced by the same engines from the same
// canonical scenario bytes on every node, results are reassembled by
// unit index, and Summarize is order-independent — so the aggregated
// Summary is byte-identical (wall-clock aside) across worker counts,
// arrival orders, retries, and mid-sweep worker failures. The shared
// remote cache tier (internal/cache) keeps that soundness because keys
// are content addresses: a cached verdict is exactly what
// re-verification would produce.
package fleet
