// Package cache is the content-addressed verification result cache:
// it maps the canonical hash of a (scenario, engine) pair — see
// engine.CacheKey — to the engine's Result, so repeated sweeps skip
// scenarios that are already verified.
//
// The cache is an in-memory LRU with an optional on-disk persistence
// layer and an optional remote/peer HTTP tier. Memory answers hot
// lookups; when a directory is configured, every stored result is also
// written there (one canonical-JSON file per key, written atomically
// via rename) and memory misses fall back to disk, so a service restart
// keeps its verified corpus. When a peer URL is configured, misses in
// both local tiers are fetched from the peer (single-flighted per key,
// so a thundering herd of identical misses costs one round trip) and
// every Put is propagated asynchronously through a bounded queue that
// drops rather than blocks — one fleet node's conclusive verdict warms
// every node pointed at the same peer, and a wedged peer never stalls
// verification. HTTPHandler serves the peer side of that protocol from
// a cache's local tiers, optionally behind a shared secret; the
// protocol trusts its clients (a stored result cannot be validated
// against its key), so expose it to fleet peers only. LRU eviction
// applies to memory only — disk is the durable tier and is never
// garbage-collected by this package; remote failures degrade to
// misses, never to errors.
//
// Caching is sound because everything around it is deterministic: the
// engines produce the same Result for the same (Scenario, Engine)
// value, and the codec's canonical encoding gives equal scenarios equal
// keys. Only conclusive results are stored by the Runner, so a cached
// verdict is exactly the verdict re-verification would produce; the
// disk and peer tiers hold what they read to the same rule, refusing an
// entry of any other status like a corrupt one.
//
// A memory-tier entry keeps, beside its Result, the encoded result line
// (built the first time the entry is encoded — on its first hit, or by
// the disk or peer tier's write — and dropped with the entry), so
// serving a hit costs a copy of those bytes with the requester's name,
// index and cached flag spliced in, not an encode.
//
// All methods are safe for concurrent use; the Runner's worker pool
// hits one shared Cache. Results are returned by value, but the
// counterexample Trace inside a Result is a shared pointer — treat
// cached traces as read-only.
package cache
