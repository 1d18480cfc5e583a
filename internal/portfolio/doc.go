// Package portfolio is the parallel SAT solving layer: it decides CNF
// satisfiability by racing several sat.Solver instances instead of
// running one. (In engine-layer terms it is the parallel backend behind
// the SAT adapter's Workers option, not a verification engine of its
// own.) SolvePortfolio is the one strategy: N solvers with diversified
// heuristics (phase defaults, restart cadence, random polarity
// perturbation) race on the same formula; the first definitive answer
// wins and the losers are stopped through the solver's cooperative
// cancel check. Every member solves its own copy of the formula from
// scratch, and no clause ever crosses from one member to another.
//
// The race is deterministic in its *answer* (it agrees with a
// sequential solve; models are verified satisfying assignments) while
// leaving the wall-clock schedule free. Member 0 always runs the
// reference configuration, so a race never loses to a single solver by
// more than scheduling noise — on a machine with a core per member.
// Options.Cancel propagates external cancellation (deadlines, sibling
// results) into every member. relalg.Problem.Workers, the engine layer's
// SAT adapter and cmd/satsolve -workers funnel through this package.
//
// docs/PERFORMANCE.md, "The parallel SAT layer, measured", records why
// this is the only parallel strategy left: on the model family's scopes
// neither cube-and-conquer nor a clause-mirroring incremental portfolio
// beat the serial solver.
package portfolio
