package sat

import (
	"errors"
	"slices"
	"sort"
)

// ErrAddAfterUnsat is returned by AddClause once the formula is known
// unsatisfiable at the root level.
var ErrAddAfterUnsat = errors.New("sat: clause added to a solver already proven unsat")

// reasonT is the implication reason of an assigned variable, packed into
// one word. Values:
//
//	reasonNone          decision, assumption, or root-level fact
//	reasonBin | lit     binary clause: the other literal is inlined
//	cref                long clause in the arena (top bit clear)
//
// The arena guards crefs below 2^31 so the tag bit is always free.
// reasonNone has the tag bit set too, so test it first.
type reasonT uint32

const (
	reasonNone reasonT = ^reasonT(0)
	reasonBin  reasonT = 1 << 31
)

// lbdSat is the saturation point of the LBD deletion ordering: clauses
// whose literals span more than this many decision levels compare equal
// on glue and fall through to the activity tiebreak.
const lbdSat = 6

// Options tunes solver behaviour. The zero value selects production
// defaults (VSIDS on, restarts on, LBD-tiered clause deletion on). The
// fields beyond the ablation switches exist to diversify the members of
// a solver portfolio (internal/portfolio): each racing solver gets a
// different polarity default, restart cadence, and random perturbation
// seed so they explore different parts of the search space.
type Options struct {
	// DisableVSIDS branches on the lowest-indexed unassigned variable
	// instead of activity order. Used by the heuristic ablation bench.
	DisableVSIDS bool
	// DisableRestarts turns off Luby restarts.
	DisableRestarts bool
	// DisablePhaseSaving always decides the negative polarity first.
	DisablePhaseSaving bool
	// MaxConflicts aborts the search with StatusUnknown after this many
	// conflicts (0 = unlimited).
	MaxConflicts int64
	// InvertPhase starts every variable with the positive polarity
	// instead of the negative one (phase saving still updates it).
	InvertPhase bool
	// RestartBase scales the Luby restart sequence (conflicts before the
	// first restart). 0 means the default of 100.
	RestartBase int64
	// RandSeed seeds the solver's deterministic pseudo-random stream
	// (used only when RandomPolarityFreq > 0). 0 selects a fixed seed,
	// so equal Options always reproduce the same search.
	RandSeed uint64
	// RandomPolarityFreq is the probability (0..1) that a decision uses
	// a random polarity instead of the saved phase.
	RandomPolarityFreq float64

	// The clause-database knobs below are test seams, not product
	// options: only this package's tests set them, to drive deletion
	// and compaction to both extremes on small formulas.

	// disableLBD falls back to pure activity ordering when halving the
	// learnt database, the pre-arena policy. The default keeps a core
	// tier of low-LBD ("glue") clauses forever and deletes worst-glue
	// first.
	disableLBD bool
	// coreLBD is the glue threshold: learnt clauses with LBD at or below
	// it are never deleted. 0 means the default of 3.
	coreLBD int
	// gcFrac is the fraction of the clause arena that may be wasted by
	// deleted clauses before a compacting GC runs. 0 means the default
	// of 0.25; values >= 1 effectively disable compaction.
	gcFrac float64
}

// Solver is a CDCL SAT solver. Create with NewSolver, add variables with
// NewVar and clauses with AddClause, then call Solve. After a SAT answer,
// Value reads the model; more clauses may then be added (e.g. blocking
// clauses for model enumeration) and Solve called again.
//
// Storage: clauses of three or more literals live in a flat uint32
// arena addressed by 32-bit crefs; binary clauses are inlined into
// dedicated watch lists (binWatches) and never touch the arena; units
// become root-level trail assignments. Deleted learnts leave dead words
// behind that a compacting GC reclaims once a quarter of the arena is
// waste. The watch lists live in two slabs, and every other piece of
// state is a flat slice of plain values.
type Solver struct {
	opts Options

	ca      arena
	clauses []cref   // problem clauses of size >= 3
	bins    [][2]Lit // problem binary clauses (for export/counting)
	learnts []cref   // learnt clauses of size >= 3

	// watches' list of l holds the long clauses that must be inspected
	// when l becomes true, i.e. that watch l.Not(). binWatches' list of
	// l holds, for each binary clause (l.Not() ∨ q), the implied
	// literal q.
	watches    slab[watcher]
	binWatches slab[Lit]

	vals     []LBool // indexed by Lit: vals[l] is l's value
	level    []int32
	reason   []reasonT
	activity []float64
	phase    []bool // saved polarity: true = last assigned true

	trail    []Lit
	trailLim []int
	qhead    int

	order  varHeap
	varInc float64

	claInc float64

	ok    bool // false once UNSAT at root level
	stats Stats

	rng uint64 // xorshift state for RandomPolarityFreq

	// conflict scratch, valid between propagate()==true and analyze():
	// conflCr is the conflicting long clause, or crefUndef with the
	// conflicting binary clause spelled out in conflBin.
	conflCr  cref
	conflBin [2]Lit

	// cancelled is polled periodically inside search; when it reports
	// true the solve returns StatusUnknown. Set via SetCancel.
	cancelled func() bool

	// scratch buffers for analyze and reduceDB
	seen      []bool
	analyzeCl []Lit
	clearList []Lit
	lbdSeen   []uint64 // per-level stamp array for computeLBD
	lbdStamp  uint64
	reduceCl  []cref
	addCl     []Lit // AddClause's sorted working copy of its argument
}

// NewSolver returns a solver with default options.
func NewSolver() *Solver { return NewSolverWithOptions(Options{}) }

// NewSolverWithOptions returns a solver with the given tuning options.
func NewSolverWithOptions(opts Options) *Solver {
	s := &Solver{opts: opts, varInc: 1, claInc: 1, ok: true, rng: seedRand(opts.RandSeed)}
	s.lbdSeen = []uint64{0} // level 0; NewVar adds one slot per level
	return s
}

// SetCancel installs a cooperative cancellation check. The search loop
// polls it periodically (every few dozen conflicts/decisions); when it
// reports true, Solve returns StatusUnknown. The solver stays usable —
// a later Solve resumes with the learnt clauses intact. Passing nil
// removes the check. Used by the portfolio engine to stop losers once
// one racer has answered.
func (s *Solver) SetCancel(cancelled func() bool) { s.cancelled = cancelled }

// seedRand is the initial state of the random stream for a seed: 0
// selects a fixed non-zero state, as xorshift needs one.
func seedRand(seed uint64) uint64 {
	if seed == 0 {
		return 0x9e3779b97f4a7c15
	}
	return seed
}

// nextRand advances the solver's xorshift64 stream.
func (s *Solver) nextRand() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

// coreLBD returns the glue tier threshold.
func (s *Solver) coreLBD() uint32 {
	if s.opts.coreLBD > 0 {
		return uint32(s.opts.coreLBD)
	}
	return 3
}

// gcFrac returns the arena waste fraction that triggers compaction.
func (s *Solver) gcFrac() float64 {
	if s.opts.gcFrac > 0 {
		return s.opts.gcFrac
	}
	return 0.25
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) + len(s.bins) }

// Stats returns a copy of the solver counters.
func (s *Solver) Stats() Stats { return s.stats }

// NewVar allocates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.level))
	s.vals = append(s.vals, Undef, Undef)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, reasonNone)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, s.opts.InvertPhase)
	s.seen = append(s.seen, false)
	s.watches.addVar()
	s.binWatches.addVar()
	s.lbdSeen = append(s.lbdSeen, 0) // decision levels range 0..NumVars
	s.order.insert(v, 0)
	return v
}

// NewVars allocates n fresh variables and returns the first one. Each
// per-variable slice grows once, not once per variable.
func (s *Solver) NewVars(n int) Var {
	first := Var(len(s.level))
	s.Grow(n)
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return first
}

// Grow makes room for n more variables: the next n NewVar calls append
// to every per-variable slice without reallocating it. A caller that
// knows how many variables it is about to create (a circuit about to
// emit its gates) saves the repeated copying of nine growing slices.
func (s *Solver) Grow(n int) {
	if n <= 0 {
		return
	}
	s.vals = slices.Grow(s.vals, 2*n)
	s.level = slices.Grow(s.level, n)
	s.reason = slices.Grow(s.reason, n)
	s.activity = slices.Grow(s.activity, n)
	s.phase = slices.Grow(s.phase, n)
	s.seen = slices.Grow(s.seen, n)
	s.watches.grow(n)
	s.binWatches.grow(n)
	s.lbdSeen = slices.Grow(s.lbdSeen, n)
	s.order.grow(n)
}

// Reserve makes room for clauses the caller is about to add: bins
// binary clauses, and longs clauses of three or more literals holding
// lits literals in all. The AddClause calls within those counts append
// to the clause lists and the arena without reallocating them, and the
// watch slabs grow once by slabPerClause entries a clause. It allocates
// no variable and adds no clause, so a search is the same with it as
// without.
func (s *Solver) Reserve(bins, longs, lits int) {
	if bins > 0 {
		s.bins = slices.Grow(s.bins, bins)
		s.binWatches.reserve(slabPerClause * bins)
	}
	if longs > 0 {
		s.clauses = slices.Grow(s.clauses, longs)
		s.ca.data = slices.Grow(s.ca.data, longs+lits)
		s.watches.reserve(slabPerClause * longs)
	}
}

// slabPerClause is the slab a clause takes as its lists grow: its two
// watches, the spare room of lists that double, and the room they left
// behind when they moved. The consensus check of internal/mcamodel, at
// the benchmark's and the paper's scope, takes 4.5–4.7 in both slabs.
const slabPerClause = 5

// Clone returns a deep copy of the solver that searches under opts. For
// a solver that has not searched yet, the copy's search — every
// decision, conflict and counter — equals that of a solver built with
// NewSolverWithOptions(opts) and given the same variables and clauses:
// the copy re-seeds the random stream from opts.RandSeed and, when
// opts.InvertPhase differs, resets the saved phase of every unassigned
// variable, the two places a fresh solver reads its options before the
// search. Root-level assignments and the counters of their propagation
// carry over, as they would from the same AddClause calls. The copy has
// no cancellation check. Clone only reads the receiver, so any number
// of goroutines may clone one solver nobody searches.
//
// Every piece of the state is a flat slice, so a copy is a few slice
// copies. Each watch list keeps its room, so the copy's lists grow no
// sooner than the original's would; the room that moved lists left
// behind is dropped, so a copy of a copy is plain copies throughout.
func (s *Solver) Clone(opts Options) *Solver {
	c := &Solver{
		opts:       opts,
		ca:         arena{data: slices.Clone(s.ca.data), wasted: s.ca.wasted},
		clauses:    slices.Clone(s.clauses),
		bins:       slices.Clone(s.bins),
		learnts:    slices.Clone(s.learnts),
		watches:    s.watches.clone(),
		binWatches: s.binWatches.clone(),
		vals:       slices.Clone(s.vals),
		level:      slices.Clone(s.level),
		reason:     slices.Clone(s.reason),
		activity:   slices.Clone(s.activity),
		phase:      slices.Clone(s.phase),
		trail:      slices.Clone(s.trail),
		trailLim:   slices.Clone(s.trailLim),
		qhead:      s.qhead,
		varInc:     s.varInc,
		claInc:     s.claInc,
		ok:         s.ok,
		stats:      s.stats,
		rng:        seedRand(opts.RandSeed),
		conflCr:    s.conflCr,
		conflBin:   s.conflBin,
		seen:       make([]bool, len(s.seen)), // all false outside analyze
		lbdSeen:    slices.Clone(s.lbdSeen),
		lbdStamp:   s.lbdStamp,
		order:      s.order.clone(),
	}
	if opts.InvertPhase != s.opts.InvertPhase {
		for v := range c.phase {
			if c.vals[PosLit(Var(v))] == Undef {
				c.phase[v] = opts.InvertPhase
			}
		}
	}
	return c
}

func (s *Solver) valueLit(l Lit) LBool { return s.vals[l] }

// Value returns the model value of v after a SAT answer (Undef if the
// variable was never assigned, which can happen for variables not
// occurring in any clause).
func (s *Solver) Value(v Var) LBool { return s.vals[PosLit(v)] }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over the given literals. It returns
// ErrAddAfterUnsat if the solver is already in an unsatisfiable state,
// and silently strengthens/discards tautological or falsified input:
// duplicate literals are merged, true clauses dropped, false literals
// removed (at root level). Adding the empty clause makes the formula
// unsat. Calling AddClause after a SAT answer resets the search state and
// invalidates the model, so read Model first when enumerating.
func (s *Solver) AddClause(lits ...Lit) error {
	if !s.ok {
		return ErrAddAfterUnsat
	}
	if s.decisionLevel() != 0 {
		s.backtrack(0)
	}
	// Sort a solver-owned copy: the arena, the binary list and the trail
	// each copy what they keep, so the buffer is free again on return.
	// slices.Sort is a plain insertion sort at Tseitin-clause lengths.
	ls := append(s.addCl[:0], lits...)
	s.addCl = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		if l.Var() < 0 || int(l.Var()) >= s.NumVars() {
			panic("sat: literal over undeclared variable")
		}
		if l == prev {
			continue // duplicate
		}
		if prev != LitUndef && l == prev.Not() {
			return nil // tautology p ∨ ¬p
		}
		switch s.valueLit(l) {
		case True:
			return nil // already satisfied at root
		case False:
			continue // falsified at root: drop literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return nil
	case 1:
		s.uncheckedEnqueue(out[0], reasonNone)
		if s.propagate() {
			s.ok = false
		}
		return nil
	case 2:
		s.bins = append(s.bins, [2]Lit{out[0], out[1]})
		s.attachBin(out[0], out[1])
		return nil
	}
	c := s.ca.allocProblem(out)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return nil
}

// attach registers the first two literals of the long clause c as
// watched, each with the other as blocker.
func (s *Solver) attach(c cref) {
	ls := s.ca.lits(c)
	l0, l1 := Lit(ls[0]), Lit(ls[1])
	s.watches.push(l0.Not(), watcher{cr: c, blocker: l1})
	s.watches.push(l1.Not(), watcher{cr: c, blocker: l0})
}

func (s *Solver) detach(c cref) {
	ls := s.ca.lits(c)
	for _, l := range [2]Lit{Lit(ls[0]).Not(), Lit(ls[1]).Not()} {
		for i, w := range s.watches.list(l) {
			if w.cr == c {
				s.watches.remove(l, i)
				break
			}
		}
	}
}

// attachBin records the binary clause (a ∨ b) in both inline watch lists.
func (s *Solver) attachBin(a, b Lit) {
	s.binWatches.push(a.Not(), b)
	s.binWatches.push(b.Not(), a)
}

func (s *Solver) uncheckedEnqueue(l Lit, from reasonT) {
	v := l.Var()
	s.vals[l] = True
	s.vals[l.Not()] = False
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.phase[v] = !l.Neg()
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation to fixpoint and reports whether a
// conflict was found; the conflicting clause is left in s.conflCr /
// s.conflBin for analyze. Per trail literal it makes one pass over the
// inline binary list — which never touches the arena — and one
// in-place compacting walk over the long watch list with the blocker
// fast path. It allocates only when the watch slab itself must grow.
func (s *Solver) propagate() bool {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; clauses watching p.Not() must move
		s.qhead++
		s.stats.Propagations++

		// Binary pass: each q completes a clause (p.Not() ∨ q).
		for _, q := range s.binWatches.list(p) {
			switch s.valueLit(q) {
			case True:
			case False:
				s.conflCr = crefUndef
				s.conflBin = [2]Lit{q, p.Not()}
				s.qhead = len(s.trail)
				return true
			default:
				s.uncheckedEnqueue(q, reasonBin|reasonT(p.Not()))
			}
		}

		// Long pass: single bounds-checked walk, compacted in place.
		// Moving a watch to another list may move that list and grow
		// the slab; p's own list never moves while it is walked, so ws
		// is re-sliced from the same span after every move.
		sp := &s.watches.spans[p]
		off, n := sp.off, sp.n
		ws := s.watches.data[off : off+n]
		pn := uint32(p.Not())
		i, j := 0, 0
		for i < len(ws) {
			w := ws[i]
			if s.valueLit(w.blocker) == True {
				ws[j] = w
				i++
				j++
				continue
			}
			c := w.cr
			ls := s.ca.lits(c)
			// Normalize so ls[1] is the falsified watcher (== p.Not()).
			if ls[0] == pn {
				ls[0], ls[1] = ls[1], ls[0]
			}
			first := Lit(ls[0])
			if first != w.blocker && s.valueLit(first) == True {
				ws[j] = watcher{cr: c, blocker: first}
				i++
				j++
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(ls); k++ {
				if s.valueLit(Lit(ls[k])) != False {
					ls[1], ls[k] = ls[k], ls[1]
					s.watches.push(Lit(ls[1]).Not(), watcher{cr: c, blocker: first})
					ws = s.watches.data[off : off+n]
					moved = true
					break
				}
			}
			i++
			if moved {
				continue
			}
			// Clause is unit or conflicting: keep the watcher.
			ws[j] = watcher{cr: c, blocker: first}
			j++
			if s.valueLit(first) == False {
				s.conflCr = c
				s.qhead = len(s.trail)
				// Preserve the unexamined suffix of the watch list.
				for i < len(ws) {
					ws[j] = ws[i]
					i++
					j++
				}
				sp.n = uint32(j)
				return true
			}
			s.uncheckedEnqueue(first, reasonT(c))
		}
		sp.n = uint32(j)
	}
	return false
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.order.scale(1e-100)
		s.varInc *= 1e-100
	}
	s.order.update(v, s.activity[v])
}

func (s *Solver) decayVar() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(c cref) {
	act := s.ca.activity(c) + float32(s.claInc)
	s.ca.setActivity(c, act)
	if act > 1e20 {
		for _, lc := range s.learnts {
			s.ca.setActivity(lc, s.ca.activity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= 0.999 }

// analyzeLit folds one literal of a traversed clause into the conflict
// analysis state (method, not closure, to keep analyze allocation-free).
func (s *Solver) analyzeLit(q Lit, counter *int) {
	v := q.Var()
	if s.seen[v] || s.level[v] == 0 {
		return
	}
	s.seen[v] = true
	s.bumpVar(v)
	if int(s.level[v]) == s.decisionLevel() {
		*counter++
	} else {
		s.analyzeCl = append(s.analyzeCl, q)
	}
}

// analyze performs first-UIP conflict analysis on the conflict left by
// propagate. It fills s.analyzeCl with the learnt clause (asserting
// literal first) and returns the backtrack level. Reasons are either
// arena clauses or inlined binary literals; both paths are walked
// without materializing a literal slice.
func (s *Solver) analyze() int {
	s.analyzeCl = s.analyzeCl[:0]
	s.analyzeCl = append(s.analyzeCl, LitUndef) // room for the asserting literal
	counter := 0
	var p Lit = LitUndef
	idx := len(s.trail) - 1
	cr := s.conflCr
	var bin Lit = LitUndef // the other literal when following a binary reason
	if cr == crefUndef {
		// Binary conflict: both literals are scanned on the first round.
		s.analyzeLit(s.conflBin[0], &counter)
		s.analyzeLit(s.conflBin[1], &counter)
	}
	for {
		if cr != crefUndef {
			if s.ca.learnt(cr) {
				s.bumpClause(cr)
				// Dynamic LBD improvement: a clause traversed during
				// analysis is earning its keep; if its literals now span
				// fewer decision levels than when it was learnt, lower
				// its stored LBD so tiered deletion protects it.
				if nl := s.computeLBDWords(s.ca.lits(cr)); nl < s.ca.lbd(cr) {
					s.ca.setLBD(cr, nl)
				}
			}
			ls := s.ca.lits(cr)
			start := 0
			if p != LitUndef {
				start = 1 // ls[0] is p itself when following a reason
			}
			for _, u := range ls[start:] {
				s.analyzeLit(Lit(u), &counter)
			}
		} else if bin != LitUndef {
			s.analyzeLit(bin, &counter)
		}
		// Select next literal on the trail to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		r := s.reason[p.Var()]
		if r == reasonNone {
			panic("sat: analyze reached a decision below the UIP")
		}
		if r&reasonBin != 0 {
			cr, bin = crefUndef, Lit(r&^reasonBin)
		} else {
			cr, bin = cref(r), LitUndef
		}
	}
	s.analyzeCl[0] = p.Not()

	// Mark remaining seen for minimization; remember every mark so all of
	// them — including literals dropped by minimization — are cleared at
	// the end.
	for _, l := range s.analyzeCl[1:] {
		s.seen[l.Var()] = true
		s.clearList = append(s.clearList, l)
	}
	// Recursive clause minimization: drop literals implied by the rest.
	j := 1
	for i := 1; i < len(s.analyzeCl); i++ {
		l := s.analyzeCl[i]
		if s.reason[l.Var()] == reasonNone || !s.litRedundant(l, 0) {
			s.analyzeCl[j] = l
			j++
		}
	}
	s.analyzeCl = s.analyzeCl[:j]

	// Compute backtrack level = max level among lits[1:].
	btLevel := 0
	if len(s.analyzeCl) > 1 {
		maxI := 1
		for i := 2; i < len(s.analyzeCl); i++ {
			if s.level[s.analyzeCl[i].Var()] > s.level[s.analyzeCl[maxI].Var()] {
				maxI = i
			}
		}
		s.analyzeCl[1], s.analyzeCl[maxI] = s.analyzeCl[maxI], s.analyzeCl[1]
		btLevel = int(s.level[s.analyzeCl[1].Var()])
	}
	// Clear seen marks (including any set during litRedundant).
	for _, l := range s.analyzeCl {
		s.seen[l.Var()] = false
	}
	for _, l := range s.clearList {
		s.seen[l.Var()] = false
	}
	s.clearList = s.clearList[:0]
	return btLevel
}

// litRedundant reports whether literal l is implied by the other literals
// of the learnt clause (limited-depth recursive minimization).
func (s *Solver) litRedundant(l Lit, depth int) bool {
	if depth > 16 {
		return false
	}
	r := s.reason[l.Var()]
	if r == reasonNone {
		return false
	}
	if r&reasonBin != 0 {
		return s.redundantChild(Lit(r&^reasonBin), depth)
	}
	for _, u := range s.ca.lits(cref(r)) {
		q := Lit(u)
		if q.Var() == l.Var() {
			continue
		}
		if !s.redundantChild(q, depth) {
			return false
		}
	}
	return true
}

// redundantChild checks one antecedent literal during minimization,
// memoizing a proven-redundant result in the seen marks.
func (s *Solver) redundantChild(q Lit, depth int) bool {
	v := q.Var()
	if s.level[v] == 0 || s.seen[v] {
		return true
	}
	if s.reason[v] == reasonNone {
		return false
	}
	if !s.litRedundant(q, depth+1) {
		return false
	}
	// q proved redundant: mark so siblings can reuse the result.
	s.seen[v] = true
	s.clearList = append(s.clearList, q)
	return true
}

// computeLBD returns the literal block distance of a clause: the number
// of distinct decision levels among its literals. Called on a fresh
// learnt clause before backtracking, so every literal is still assigned.
func (s *Solver) computeLBD(lits []Lit) uint32 {
	s.lbdStamp++
	lbd := uint32(0)
	for _, l := range lits {
		lvl := s.level[l.Var()]
		if lvl <= 0 {
			continue
		}
		if s.lbdSeen[lvl] != s.lbdStamp {
			s.lbdSeen[lvl] = s.lbdStamp
			lbd++
		}
	}
	if lbd == 0 {
		lbd = 1
	}
	return lbd
}

// computeLBDWords is computeLBD over a raw arena literal run.
func (s *Solver) computeLBDWords(lits []uint32) uint32 {
	s.lbdStamp++
	lbd := uint32(0)
	for _, u := range lits {
		lvl := s.level[Lit(u).Var()]
		if lvl <= 0 {
			continue
		}
		if s.lbdSeen[lvl] != s.lbdStamp {
			s.lbdSeen[lvl] = s.lbdStamp
			lbd++
		}
	}
	if lbd == 0 {
		lbd = 1
	}
	return lbd
}

// recordLBD folds a fresh learnt clause's LBD into the stats.
func (s *Solver) recordLBD(lbd uint32) {
	s.stats.Learnt++
	s.stats.LBDSum += int64(lbd)
	bucket := int(lbd) - 1
	if bucket >= len(s.stats.LBDHist) {
		bucket = len(s.stats.LBDHist) - 1
	}
	s.stats.LBDHist[bucket]++
	if lbd <= 2 {
		s.stats.GlueLearnt++
	}
}

// backtrack undoes assignments above the given level.
func (s *Solver) backtrack(toLevel int) {
	if s.decisionLevel() <= toLevel {
		return
	}
	bound := s.trailLim[toLevel]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.vals[l], s.vals[l.Not()] = Undef, Undef
		s.reason[v] = reasonNone
		s.level[v] = -1
		s.order.insert(v, s.activity[v])
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:toLevel]
	// Trail-position-aware queue reset: everything below the truncation
	// point was propagated before the discarded levels existed, so the
	// queue resumes at the new trail end — never past it, and never
	// rewound below a still-unpropagated prefix.
	if s.qhead > bound {
		s.qhead = bound
	}
}

// pickBranchVar selects the next decision variable, or -1 if all assigned.
func (s *Solver) pickBranchVar() Var {
	if s.opts.DisableVSIDS {
		for v := 0; v < s.NumVars(); v++ {
			if s.vals[PosLit(Var(v))] == Undef {
				return Var(v)
			}
		}
		return -1
	}
	for !s.order.empty() {
		v := s.order.removeMax()
		if s.vals[PosLit(v)] == Undef {
			return v
		}
	}
	return -1
}

// reduceDB halves the learnt database. The core tier — clauses with
// LBD at or below the core threshold (3) — is exempt, as are clauses locked as
// the reason of a current assignment (learnt binaries never enter the
// arena and are never deleted). The rest is deleted worst-first: highest
// LBD, then lowest activity, with the cref as a deterministic tiebreak.
// With the disableLBD seam the ordering is pure activity, the pre-arena
// policy.
// Deletion only marks arena words dead; compaction runs once the waste
// crosses Options.gcFrac.
func (s *Solver) reduceDB() {
	locked := make(map[cref]bool, len(s.trail)/4+1)
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		if r != reasonNone && r&reasonBin == 0 {
			locked[cref(r)] = true
		}
	}
	core := s.coreLBD()
	kept := s.learnts[:0]
	cands := s.reduceCl[:0]
	for _, c := range s.learnts {
		if locked[c] || (!s.opts.disableLBD && s.ca.lbd(c) <= core) {
			kept = append(kept, c)
		} else {
			cands = append(cands, c)
		}
	}
	if s.opts.disableLBD {
		sort.Slice(cands, func(i, j int) bool {
			ai, aj := s.ca.activity(cands[i]), s.ca.activity(cands[j])
			if ai != aj {
				return ai < aj
			}
			return cands[i] > cands[j]
		})
	} else {
		sort.Slice(cands, func(i, j int) bool {
			// LBD saturates: beyond lbdSat levels a clause is "wide"
			// whatever the exact count, and activity discriminates
			// better than glue among uniformly wide clauses.
			li, lj := s.ca.lbd(cands[i]), s.ca.lbd(cands[j])
			if li > lbdSat {
				li = lbdSat
			}
			if lj > lbdSat {
				lj = lbdSat
			}
			if li != lj {
				return li > lj
			}
			ai, aj := s.ca.activity(cands[i]), s.ca.activity(cands[j])
			if ai != aj {
				return ai < aj
			}
			return cands[i] > cands[j]
		})
	}
	drop := len(cands) / 2
	for _, c := range cands[:drop] {
		s.detach(c)
		s.ca.free(c)
		s.stats.Deleted++
	}
	s.learnts = append(kept, cands[drop:]...)
	s.reduceCl = cands[:0]
	if s.ca.shouldGC(s.gcFrac()) {
		s.garbageCollect()
	}
}

// garbageCollect compacts the clause arena: live clauses are relocated
// into a fresh buffer in list order (problem clauses, then learnts) and
// every outstanding reference — clause lists, watch lists, and the long
// reasons of assigned variables — is forwarded. Relocation preserves
// watch-list order, so the search trajectory is unchanged by a GC.
func (s *Solver) garbageCollect() {
	newData := make([]uint32, 0, len(s.ca.data)-int(s.ca.wasted))
	for i, c := range s.clauses {
		s.clauses[i] = s.ca.relocate(c, &newData)
	}
	for i, c := range s.learnts {
		s.learnts[i] = s.ca.relocate(c, &newData)
	}
	// Watchers of deleted clauses were detached by reduceDB, so every
	// remaining reference has a forwarding address by now. Only the
	// entries of each span are live: the rest of its room and the rooms
	// moved lists left behind hold stale references.
	for _, sp := range s.watches.spans {
		ws := s.watches.data[sp.off : sp.off+sp.n]
		for i := range ws {
			ws[i].cr = s.ca.relocate(ws[i].cr, &newData)
		}
	}
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		if r != reasonNone && r&reasonBin == 0 {
			s.reason[l.Var()] = reasonT(s.ca.relocate(cref(r), &newData))
		}
	}
	s.ca.data = newData
	s.ca.wasted = 0
	s.stats.ArenaGCs++
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) int64 {
	x := i - 1
	// Find the finite subsequence containing x and its size.
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << uint(seq)
}

// Solve runs the CDCL search and returns StatusSat, StatusUnsat, or
// StatusUnknown when Options.MaxConflicts is exceeded.
func (s *Solver) Solve() Status { return s.SolveAssuming() }

// SolveAssuming solves under the given assumption literals: they are
// decided first and never flipped, so an UNSAT answer means "unsat
// under these assumptions" while the clause database stays reusable —
// the standard incremental-SAT interface. Learnt clauses and variable
// activities persist across calls, which is what makes sweeping many
// assumption sets over one base formula cheap.
func (s *Solver) SolveAssuming(assumptions ...Lit) Status {
	if !s.ok {
		return StatusUnsat
	}
	s.backtrack(0)
	if s.propagate() {
		s.ok = false
		return StatusUnsat
	}
	for _, a := range assumptions {
		switch s.valueLit(a) {
		case True:
			continue
		case False:
			s.backtrack(0)
			return StatusUnsat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(a, reasonNone)
		if s.propagate() {
			s.backtrack(0)
			return StatusUnsat
		}
	}
	// The floor is the decision level actually created: duplicate or
	// already-satisfied assumptions open no level of their own.
	return s.search(s.decisionLevel())
}

// search runs the CDCL loop, never backtracking past floorLevel (the
// assumption levels).
func (s *Solver) search(floorLevel int) Status {
	restartBase := s.opts.RestartBase
	if restartBase <= 0 {
		restartBase = 100
	}
	restart := int64(1)
	budget := restartBase * luby(restart)
	conflictsAtRestart := int64(0)
	maxLearnts := int64(s.NumClauses()/3 + 100)
	sinceCancelPoll := 0
	for {
		// Cooperative cancellation: every iteration ends in a conflict or
		// a decision, so polling on a shared counter here bounds the
		// latency of a portfolio cancel without a check in the hot
		// propagation loop.
		sinceCancelPoll++
		if sinceCancelPoll >= 64 {
			sinceCancelPoll = 0
			if s.cancelled != nil && s.cancelled() {
				s.backtrack(0)
				return StatusUnknown
			}
		}
		if s.propagate() {
			s.stats.Conflicts++
			conflictsAtRestart++
			if s.decisionLevel() <= floorLevel {
				if floorLevel == 0 {
					s.ok = false
				} else {
					s.backtrack(0)
				}
				return StatusUnsat
			}
			btLevel := s.analyze()
			learnt := s.analyzeCl
			var lbd uint32
			if len(learnt) > 1 {
				lbd = s.computeLBD(learnt) // before backtrack: all lits assigned
			}
			if btLevel < floorLevel {
				btLevel = floorLevel
			}
			s.backtrack(btLevel)
			switch {
			case len(learnt) == 1:
				s.uncheckedEnqueue(learnt[0], reasonNone)
			case len(learnt) == 2:
				s.attachBin(learnt[0], learnt[1])
				s.recordLBD(lbd)
				s.uncheckedEnqueue(learnt[0], reasonBin|reasonT(learnt[1]))
			default:
				c := s.ca.allocLearnt(learnt, lbd, float32(s.claInc))
				s.learnts = append(s.learnts, c)
				s.recordLBD(lbd)
				s.attach(c)
				s.uncheckedEnqueue(learnt[0], reasonT(c))
			}
			s.decayVar()
			s.decayClause()
			if s.opts.MaxConflicts > 0 && s.stats.Conflicts >= s.opts.MaxConflicts {
				s.backtrack(0)
				return StatusUnknown
			}
			continue
		}
		if !s.opts.DisableRestarts && conflictsAtRestart >= budget {
			s.stats.Restarts++
			restart++
			budget = restartBase * luby(restart)
			conflictsAtRestart = 0
			s.backtrack(floorLevel)
			continue
		}
		if int64(len(s.learnts)) >= maxLearnts+int64(len(s.trail)) {
			s.reduceDB()
			maxLearnts += maxLearnts / 10
		}
		// Every assignment sits on the trail, so a full trail means SAT
		// without draining the variable heap of its assigned entries —
		// the common endgame when propagation finishes the instance.
		if len(s.trail) == s.NumVars() {
			return StatusSat
		}
		v := s.pickBranchVar()
		if v < 0 {
			return StatusSat // all variables assigned, no conflict
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		neg := !s.phase[v]
		if s.opts.DisablePhaseSaving {
			neg = true
		}
		if s.opts.RandomPolarityFreq > 0 {
			r := s.nextRand()
			if float64(r%1000)/1000 < s.opts.RandomPolarityFreq {
				neg = r&(1<<32) != 0
			}
		}
		s.uncheckedEnqueue(MkLit(v, neg), reasonNone)
	}
}

// Model returns the satisfying assignment as a []bool indexed by
// variable. Unconstrained variables default to false. Only meaningful
// after Solve returned StatusSat.
func (s *Solver) Model() []bool {
	m := make([]bool, s.NumVars())
	for v := range m {
		m[v] = s.vals[PosLit(Var(v))] == True
	}
	return m
}

// ExportCNF snapshots the solver's problem (non-learnt) clauses and
// root-level units as a standalone CNF over the same variable indexing.
// The export is equivalent to the clauses originally added: AddClause's
// root-level simplifications (dropped satisfied clauses, removed false
// literals) are all justified by the exported unit clauses. This is the
// bridge from the relational translator — which emits clauses straight
// into one solver — to the portfolio engine, which must load the same
// formula into many solvers.
func (s *Solver) ExportCNF() *CNF {
	f := &CNF{NumVars: s.NumVars()}
	if !s.ok {
		f.AddClause() // empty clause: known unsat at root
		return f
	}
	for v := 0; v < s.NumVars(); v++ {
		if val := s.vals[PosLit(Var(v))]; s.level[v] == 0 && val != Undef && s.reason[v] == reasonNone {
			f.AddClause(MkLit(Var(v), val == False))
		}
	}
	for _, bc := range s.bins {
		f.AddClause(bc[0], bc[1])
	}
	var buf []Lit
	for _, c := range s.clauses {
		buf = buf[:0]
		for _, u := range s.ca.lits(c) {
			buf = append(buf, Lit(u))
		}
		f.AddClause(buf...)
	}
	return f
}
