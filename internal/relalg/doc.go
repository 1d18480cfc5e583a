// Package relalg implements a bounded relational logic kernel in the
// style of Kodkod, the model-finding engine underneath the Alloy
// Analyzer. A problem consists of a finite universe of atoms, relations
// with lower/upper tuple-set bounds, and a first-order relational
// formula. The kernel translates the formula into a boolean circuit over
// one variable per undetermined tuple, converts the circuit to CNF via
// Tseitin encoding, and delegates satisfiability to internal/sat.
//
// The paper's Alloy model (signatures, facts, predicates, assertions)
// is built directly on this kernel's bounds by internal/mcamodel.
//
// Key entry points: Universe/Bounds/Relation (the bounded vocabulary),
// the Formula and Expr constructors (And, Or, Not, Forall, Exists,
// Join, Product, In, ...), Problem and Solve (with TranslateOnly and
// TranslateToCNF for measurement and export), and Instance for reading
// models back. Translate keeps one translation for many solves: its
// Solve searches a copy of the translated solver under any sat.Options
// and answers exactly as Solve would. Problem.Workers races a solver
// portfolio (internal/portfolio) instead of one sequential solver;
// Incremental answers a sweep of variants over one translation on one
// serial solver; Problem.Cancel and Incremental.SetCancel are the
// cooperative cancellation hooks the engine layer drives from contexts.
//
// Determinism: translation is deterministic in (bounds, formula) —
// variable numbering, Tseitin auxiliaries, and clause order are
// reproducible, and internal/mcamodel pins the consensus check's CNF
// byte for byte — and solve answers are deterministic in the problem
// (the portfolio changes wall-clock, never the verdict). The
// translator's data structures (sorted sparse matrices, integer-interned
// gates, a cache keyed by node and free-variable binding) are described
// in docs/PERFORMANCE.md, "The SAT path: translation".
package relalg
