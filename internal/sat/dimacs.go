package sat

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CNF is a formula in conjunctive normal form, independent of any solver
// instance. Variables are 0-based; the DIMACS reader/writer shifts by one.
type CNF struct {
	NumVars int
	Clauses [][]Lit
}

// AddClause appends a clause, growing NumVars as needed.
func (f *CNF) AddClause(lits ...Lit) {
	c := append([]Lit(nil), lits...)
	for _, l := range c {
		if int(l.Var()) >= f.NumVars {
			f.NumVars = int(l.Var()) + 1
		}
	}
	f.Clauses = append(f.Clauses, c)
}

// NumClauses returns the number of clauses.
func (f *CNF) NumClauses() int { return len(f.Clauses) }

// LoadInto creates the formula's variables and clauses in a solver. If
// the formula becomes unsatisfiable at the root level partway through,
// loading stops early and returns nil: the solver will answer UNSAT.
func (f *CNF) LoadInto(s *Solver) error {
	if n := f.NumVars - s.NumVars(); n > 0 {
		s.NewVars(n)
	}
	for _, c := range f.Clauses {
		if err := s.AddClause(c...); err != nil {
			if errors.Is(err, ErrAddAfterUnsat) {
				return nil
			}
			return err
		}
	}
	return nil
}

// Eval reports whether the assignment (indexed by variable) satisfies
// every clause.
func (f *CNF) Eval(model []bool) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			v := int(l.Var())
			if v < len(model) && model[v] != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// maxDIMACSVar is the largest 1-based variable a DIMACS literal may
// name: variable v-1 has the literals 2(v-1) and 2(v-1)+1, and Lit is
// an int32.
const maxDIMACSVar = 1 << 30

// maxUnusedVars bounds the variables of a parsed formula that occur in
// no clause. LoadInto allocates some 130 bytes of solver state per
// variable, so without a bound a twenty-byte file — a large declared
// count, or one literal with a large index — could demand gigabytes;
// with it, memory stays proportional to the size of the input.
const maxUnusedVars = 1 << 20

// ParseDIMACS reads a CNF in DIMACS format. Comment lines (c ...) and the
// problem line (p cnf V C) are handled; clause terminator is 0. Input is
// untrusted: a literal or variable count outside the representable
// range, or a variable count far beyond the literals present, is an
// error, never a wrapped index or an allocation.
func ParseDIMACS(r io.Reader) (*CNF, error) {
	f, _, err := parseDIMACS(r, false)
	return f, err
}

// ParseICNF reads the iCNF dialect incremental solving takes: whatever
// ParseDIMACS reads, plus a "p inccnf" header (skipped) and assumption
// lines "a <lit> ... 0", returned in input order as one literal set
// per line. Assumption literals are held to the bounds clause literals
// are and may name variables no clause does; those count in NumVars,
// so LoadInto creates them.
func ParseICNF(r io.Reader) (*CNF, [][]Lit, error) {
	return parseDIMACS(r, true)
}

func parseDIMACS(r io.Reader, icnf bool) (*CNF, [][]Lit, error) {
	f := &CNF{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var cur []Lit
	var assumptions [][]Lit
	declaredVars := -1
	numLits := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if icnf && strings.HasPrefix(line, "p inccnf") {
			continue
		}
		if icnf && (line == "a" || strings.HasPrefix(line, "a ")) {
			// The first 0 ends the set; what follows it is ignored.
			var set []Lit
			for _, tok := range strings.Fields(line)[1:] {
				l, zero, err := parseLit(tok)
				if err != nil {
					return nil, nil, err
				}
				if zero {
					break
				}
				set = append(set, l)
				f.NumVars = max(f.NumVars, int(l.Var())+1)
				numLits++
			}
			assumptions = append(assumptions, set)
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, nil, fmt.Errorf("sat: malformed problem line %q", line)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, nil, fmt.Errorf("sat: bad var count in %q: %w", line, err)
			}
			if v < 0 || v > maxDIMACSVar {
				return nil, nil, fmt.Errorf("sat: var count %d outside [0, %d]", v, maxDIMACSVar)
			}
			declaredVars = v
			continue
		}
		for _, tok := range strings.Fields(line) {
			l, zero, err := parseLit(tok)
			if err != nil {
				return nil, nil, err
			}
			if zero {
				f.AddClause(cur...)
				cur = cur[:0]
				continue
			}
			cur = append(cur, l)
			numLits++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("sat: reading DIMACS: %w", err)
	}
	if len(cur) > 0 {
		return nil, nil, fmt.Errorf("sat: unterminated clause %v", cur)
	}
	if declaredVars > f.NumVars {
		f.NumVars = declaredVars
	}
	if f.NumVars-numLits > maxUnusedVars {
		return nil, nil, fmt.Errorf("sat: %d variables but only %d literals: more than %d variables occur nowhere",
			f.NumVars, numLits, maxUnusedVars)
	}
	return f, assumptions, nil
}

// parseLit converts one DIMACS token: the terminator 0, or the literal
// ±v of the 1-based variable v, which must fit a Lit.
func parseLit(tok string) (l Lit, zero bool, err error) {
	n, err := strconv.Atoi(tok)
	if err != nil {
		return 0, false, fmt.Errorf("sat: bad literal %q: %w", tok, err)
	}
	if n == 0 {
		return 0, true, nil
	}
	if n < -maxDIMACSVar || n > maxDIMACSVar {
		return 0, false, fmt.Errorf("sat: literal %s names a variable above %d", tok, maxDIMACSVar)
	}
	v := n
	if v < 0 {
		v = -v
	}
	return MkLit(Var(v-1), n < 0), false, nil
}

// WriteDIMACS emits the formula in DIMACS format.
func (f *CNF) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses)); err != nil {
		return err
	}
	for _, c := range f.Clauses {
		for _, l := range c {
			if _, err := fmt.Fprintf(bw, "%s ", l); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
