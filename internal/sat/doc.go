// Package sat implements a complete CDCL boolean satisfiability solver.
//
// It is the bottom layer of the verification stack: the relational logic
// kernel (internal/relalg) translates bounded first-order relational
// formulas into CNF exactly the way the Alloy Analyzer's Kodkod engine
// does, and this solver plays the role of MiniSat. The implementation
// uses the standard modern toolkit: two-watched-literal propagation,
// VSIDS branching with phase saving, first-UIP conflict analysis with
// recursive clause minimization, Luby restarts, and learnt-clause
// database reduction.
//
// # Storage and the propagation hot path
//
// Clauses live in a flat uint32 arena addressed by 32-bit clause
// references (MiniSat's ClauseAllocator design): a problem clause is a
// header word plus its literal run, a learnt clause carries two extra
// prefix words (LBD and a float32 activity). The arena is compacted by
// a relocating garbage collector once a quarter of it is dead words, so
// long sweeps cannot fragment memory; Stats.ArenaGCs counts
// compactions. Binary clauses never touch the arena at all: each
// literal keeps an inline list of its binary implications, propagated
// in a dedicated pass before the long-clause walk. Long-clause watchers
// carry a blocker literal whose satisfaction skips the clause without
// loading it. The watch lists of each kind live in one slab: a backing
// array plus an {off, n, room} span per literal; a full list moves to
// the end of the slab with twice its room, and only Clone compacts,
// keeping each list's room. Values are indexed by literal, so testing
// one is a single load, and each slot of the VSIDS heap carries its
// variable's activity. No piece of the state holds a pointer, so the
// garbage collector scans none of it and a Clone is a few slice
// copies. Propagation resumes from the trail position where the last
// call stopped, and the per-conflict path allocates nothing.
//
// # Learnt-clause management
//
// Learnt clauses are ranked by literal-block distance (LBD, the glue
// metric of Glucose): clauses at LBD 3 or below are never deleted, the
// rest are sorted worst-first by saturated LBD, then activity, and the
// worst half is dropped at each reduction. LBD
// is recomputed when a learnt clause participates in conflict analysis
// and kept if lower. The thresholds are constants to callers; the
// package's own tests move them through unexported Options fields.
//
// # Incremental solving
//
// SolveAssuming decides the formula under assumption literals without
// destroying learnt state, so one Solver answers a sequence of related
// queries ever faster. This is how relalg.Incremental answers a sweep
// of assertion variants over one translation; no clause ever leaves the
// solver that learnt it.
//
// Key types: Solver (NewVar/AddClause/Solve/Value, incremental across
// Solve calls so blocking clauses support model enumeration), Options
// (heuristic ablations plus the diversification knobs the portfolio
// engine uses: phase inversion, restart base, seeded random polarity),
// Status (SAT/UNSAT/Unknown), DIMACS I/O, and a brute-force oracle for
// differential testing.
//
// Determinism and concurrency: a solve is fully deterministic in
// (clauses, Options) — RandSeed seeds a deterministic stream, so equal
// inputs replay the same search. Clone copies a solver that has not
// searched into one that searches as a fresh solver with other Options
// would, so one set of clauses serves many searches; any number of
// goroutines may clone one unsearched solver. A Solver is
// single-goroutine otherwise; parallel
// solving is the portfolio package's job, which runs one Solver per
// worker and stops losers through Options' cooperative cancel check.
package sat
