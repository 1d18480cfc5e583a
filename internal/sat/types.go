package sat

import "fmt"

// Var is a 0-based propositional variable index. It is 32-bit on
// purpose: literals are stored by the million in the clause arena and
// the watch lists, and halving the word size halves the cache traffic
// of the propagation loop.
type Var int32

// Lit is a literal: variable 2*v for the positive polarity, 2*v+1 for the
// negative. The zero Lit is the positive literal of variable 0; use
// LitUndef for "no literal".
type Lit int32

// LitUndef is the sentinel "no literal" value.
const LitUndef Lit = -1

// MkLit builds a literal from a variable and a sign (true = negated).
func MkLit(v Var, neg bool) Lit {
	if neg {
		return Lit(2*int(v) + 1)
	}
	return Lit(2 * int(v))
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return MkLit(v, false) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return MkLit(v, true) }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal in DIMACS style ("3", "-7").
func (l Lit) String() string {
	if l == LitUndef {
		return "?"
	}
	if l.Neg() {
		return fmt.Sprintf("-%d", int(l.Var())+1)
	}
	return fmt.Sprintf("%d", int(l.Var())+1)
}

// LBool is a three-valued boolean: True, False, or Undef.
type LBool int8

// Three-valued constants. Undef is the zero value so fresh assignment
// vectors start unassigned.
const (
	Undef LBool = 0
	True  LBool = 1
	False LBool = -1
)

// Not returns the three-valued negation.
func (b LBool) Not() LBool { return -b }

// String renders the truth value.
func (b LBool) String() string {
	switch b {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "undef"
	}
}

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	StatusUnknown Status = iota // budget exhausted before an answer
	StatusSat
	StatusUnsat
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "SAT"
	case StatusUnsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// statusTokens is the result-document vocabulary of Status, indexed by
// status (String's upper-case names are the display spelling);
// StatusUnknown is the omitted field.
var statusTokens = [...]string{StatusUnknown: "", StatusSat: "sat", StatusUnsat: "unsat"}

// MarshalText renders the status as its document token.
func (s Status) MarshalText() ([]byte, error) {
	if s < 0 || int(s) >= len(statusTokens) {
		return nil, fmt.Errorf("sat: unencodable status %d", int(s))
	}
	return []byte(statusTokens[s]), nil
}

// UnmarshalText parses a document token.
func (s *Status) UnmarshalText(text []byte) error {
	for v, tok := range statusTokens {
		if tok == string(text) {
			*s = Status(v)
			return nil
		}
	}
	return fmt.Errorf("sat: unknown status %q", text)
}

// Stats aggregates solver counters, reported by Solver.Stats.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnt       int64
	Deleted      int64
	// GlueLearnt counts learnt clauses with LBD ≤ 2 ("glue" clauses,
	// exempt from deletion).
	GlueLearnt int64
	// LBDSum is the sum of the LBD of every stored learnt clause;
	// LBDSum/Learnt is the mean glue level of the search.
	LBDSum int64
	// LBDHist buckets stored learnt clauses by LBD: index i counts
	// clauses with LBD i+1 for i < 7, and the last bucket counts LBD ≥ 8.
	LBDHist [8]int64
	// ArenaGCs counts compactions of the clause arena.
	ArenaGCs int64
}

// Sub returns the field-by-field difference s - prev: the per-solve
// counters of an incremental session whose solver reports cumulative
// totals.
func (s Stats) Sub(prev Stats) Stats {
	d := s
	d.Conflicts -= prev.Conflicts
	d.Decisions -= prev.Decisions
	d.Propagations -= prev.Propagations
	d.Restarts -= prev.Restarts
	d.Learnt -= prev.Learnt
	d.Deleted -= prev.Deleted
	d.GlueLearnt -= prev.GlueLearnt
	d.LBDSum -= prev.LBDSum
	for i := range d.LBDHist {
		d.LBDHist[i] -= prev.LBDHist[i]
	}
	d.ArenaGCs -= prev.ArenaGCs
	return d
}

// MeanLBD returns the average LBD over stored learnt clauses (0 when
// none were learnt).
func (s Stats) MeanLBD() float64 {
	if s.Learnt == 0 {
		return 0
	}
	return float64(s.LBDSum) / float64(s.Learnt)
}
