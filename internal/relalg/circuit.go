package relalg

import (
	"fmt"
	"slices"

	"repro/internal/sat"
)

// Node is a boolean circuit node reference. Negation is arithmetic:
// -n denotes NOT n. The constants TrueNode and FalseNode are fixed IDs.
// Node 0 is invalid.
type Node int32

// Circuit constants.
const (
	TrueNode  Node = 1
	FalseNode Node = -1
)

// varUnset marks an AND gate whose Tseitin variable is not allocated yet.
const varUnset sat.Var = -1

// gate is an input (n == 0) or an AND gate over
// Circuit.children[off:off+n], which are sorted ascending, distinct and
// never constant.
type gate struct {
	off, n uint32
	v      sat.Var // input variable, or Tseitin variable (varUnset until emitted)
}

// Circuit builds an and-inverter-style boolean circuit with structural
// hashing, backed by SAT variables for its inputs. It mirrors Kodkod's
// boolean-circuit layer: the relational translator creates one input per
// undetermined tuple and composes gates, and ToCNF performs the Tseitin
// transformation that the clause-count experiment (E5) measures.
//
// Gates are interned on integers: two-input gates — the large majority —
// by their child pair, wider ones through a bucket per child hash. Node
// ids follow creation order, and Tseitin numbering follows node ids and
// child order, so the emitted CNF is a function of the sequence of
// And/Or calls alone.
type Circuit struct {
	solver   *sat.Solver
	gates    []gate // index = node id - 2 (ids 2.. are real nodes)
	children []Node // child runs of every AND gate, back to back

	pairs map[[2]Node]Node // two-input gates by (smaller, larger) child
	wide  map[uint64][]Node

	scratch []Node    // and's working copy of its arguments
	lits    []sat.Lit // litFor's stack of child literals

	gateVars int
	clauses  int
}

// NewCircuit creates a circuit whose inputs and Tseitin variables are
// allocated in the given solver.
func NewCircuit(s *sat.Solver) *Circuit {
	return &Circuit{solver: s, pairs: make(map[[2]Node]Node), wide: make(map[uint64][]Node)}
}

// NewInput allocates a fresh input node backed by a fresh SAT variable.
func (c *Circuit) NewInput() Node {
	c.gates = append(c.gates, gate{v: c.solver.NewVar()})
	return Node(len(c.gates) + 1) // ids start at 2
}

// InputVar returns the SAT variable of an input node.
func (c *Circuit) InputVar(n Node) sat.Var {
	g := c.gate(n)
	if g.n != 0 {
		panic("relalg: InputVar on a gate node")
	}
	return g.v
}

func (c *Circuit) gate(n Node) *gate {
	if n < 0 {
		n = -n
	}
	if n < 2 || int(n)-2 >= len(c.gates) {
		panic(fmt.Sprintf("relalg: invalid node %d", n))
	}
	return &c.gates[n-2]
}

// newGate appends an AND gate over the given sorted, distinct children.
func (c *Circuit) newGate(children []Node) Node {
	c.gates = append(c.gates, gate{off: uint32(len(c.children)), n: uint32(len(children)), v: varUnset})
	c.children = append(c.children, children...)
	return Node(len(c.gates) + 1)
}

// Not negates a node.
func (c *Circuit) Not(n Node) Node { return -n }

// And builds the conjunction of the given nodes with simplification and
// structural hashing.
func (c *Circuit) And(ns ...Node) Node { return c.and(ns, 1) }

// Or builds the disjunction via De Morgan.
func (c *Circuit) Or(ns ...Node) Node { return -c.and(ns, -1) }

// and conjoins sign*n over ns: drop TRUE, fail on FALSE, dedupe, detect
// x∧¬x, then intern the sorted children.
func (c *Circuit) and(ns []Node, sign Node) Node {
	s := c.scratch[:0]
	for _, n := range ns {
		switch n *= sign; n {
		case TrueNode:
			continue
		case FalseNode:
			return FalseNode
		case 0:
			panic("relalg: zero node in And")
		}
		s = append(s, n)
	}
	c.scratch = s
	if len(s) > 2 {
		slices.Sort(s)
		s = slices.Compact(s)
		// Ascending order puts the negated children first, largest id
		// first: walk them outwards from the sign change against the
		// positive ones.
		pos, _ := slices.BinarySearch(s, 0)
		for i, j := pos-1, pos; i >= 0 && j < len(s); {
			switch {
			case -s[i] == s[j]:
				return FalseNode
			case -s[i] < s[j]:
				i--
			default:
				j++
			}
		}
	}
	switch len(s) {
	case 0:
		return TrueNode
	case 1:
		return s[0]
	case 2:
		return c.and2(s[0], s[1])
	}
	h := hashNodes(s)
	for _, n := range c.wide[h] {
		g := c.gates[n-2]
		if slices.Equal(c.children[g.off:g.off+g.n], s) {
			return n
		}
	}
	n := c.newGate(s)
	c.wide[h] = append(c.wide[h], n)
	return n
}

// and2 is And for exactly two nodes: no scratch, no sort, one map probe.
func (c *Circuit) and2(a, b Node) Node {
	switch {
	case a == 0 || b == 0:
		panic("relalg: zero node in And")
	case a == FalseNode || b == FalseNode || a == -b:
		return FalseNode
	case a == TrueNode || a == b:
		return b
	case b == TrueNode:
		return a
	}
	if a > b {
		a, b = b, a
	}
	key := [2]Node{a, b}
	if n, ok := c.pairs[key]; ok {
		return n
	}
	n := c.newGate(key[:])
	c.pairs[key] = n
	return n
}

// or2 is Or for exactly two nodes.
func (c *Circuit) or2(a, b Node) Node { return -c.and2(-a, -b) }

// hashNodes is FNV-1a over the child ids.
func hashNodes(s []Node) uint64 {
	h := uint64(14695981039346656037)
	for _, n := range s {
		h = (h ^ uint64(uint32(n))) * 1099511628211
	}
	return h
}

// Implies builds a → b.
func (c *Circuit) Implies(a, b Node) Node { return c.or2(-a, b) }

// Iff builds a ↔ b.
func (c *Circuit) Iff(a, b Node) Node {
	return c.and2(c.Implies(a, b), c.Implies(b, a))
}

// AtMostOne builds the pairwise at-most-one constraint.
func (c *Circuit) AtMostOne(ns ...Node) Node {
	parts := make([]Node, 0, len(ns)*(len(ns)-1)/2)
	for i := 0; i < len(ns); i++ {
		for j := i + 1; j < len(ns); j++ {
			parts = append(parts, c.or2(-ns[i], -ns[j]))
		}
	}
	return c.And(parts...)
}

// CardLE builds a sequential-counter circuit asserting that at most k of
// the given nodes are true.
func (c *Circuit) CardLE(ns []Node, k int) Node {
	if k < 0 {
		return FalseNode
	}
	if k >= len(ns) {
		return TrueNode
	}
	counts := c.counter(ns, k+1)
	// at most k true  ⇔  NOT (at least k+1 true)
	return -counts[k]
}

// CardGE builds a circuit asserting that at least k nodes are true.
func (c *Circuit) CardGE(ns []Node, k int) Node {
	if k <= 0 {
		return TrueNode
	}
	if k > len(ns) {
		return FalseNode
	}
	counts := c.counter(ns, k)
	return counts[k-1]
}

// counter returns nodes counts[j] ⇔ "at least j+1 of ns are true", for
// j in [0, width).
func (c *Circuit) counter(ns []Node, width int) []Node {
	counts := make([]Node, width)
	for j := range counts {
		counts[j] = FalseNode
	}
	for _, x := range ns {
		next := make([]Node, width)
		for j := 0; j < width; j++ {
			carryIn := TrueNode
			if j > 0 {
				carryIn = counts[j-1]
			}
			// at least j+1 after x ⇔ (at least j+1 before) ∨ (x ∧ at least j before)
			next[j] = c.or2(counts[j], c.and2(x, carryIn))
		}
		counts = next
	}
	return counts
}

// litFor returns the SAT literal representing node n, creating Tseitin
// variables (and their defining clauses) for AND gates on demand.
func (c *Circuit) litFor(n Node) sat.Lit {
	neg := n < 0
	pos := n
	if neg {
		pos = -n
	}
	if pos == TrueNode {
		panic("relalg: constant node has no literal; handle before litFor")
	}
	g := c.gate(pos)
	if g.n != 0 && g.v == varUnset {
		v := c.solver.NewVar()
		g.v = v
		c.gateVars++
		// Defining clauses: v ↔ AND(children). The child literals sit on
		// the c.lits stack above base; a recursive call leaves the stack
		// as it found it, but may move it, so it is indexed, not sliced.
		base := len(c.lits)
		for _, ch := range c.children[g.off : g.off+g.n] {
			l := c.litFor(ch)
			c.lits = append(c.lits, l)
		}
		// v → child_i
		for i := base; i < len(c.lits); i++ {
			c.addClause(sat.NegLit(v), c.lits[i])
			c.lits[i] = c.lits[i].Not()
		}
		// (AND children) → v
		c.lits = append(c.lits, sat.PosLit(v))
		c.addClause(c.lits[base:]...)
		c.lits = c.lits[:base]
		return sat.MkLit(v, neg)
	}
	return sat.MkLit(g.v, neg)
}

func (c *Circuit) addClause(lits ...sat.Lit) {
	c.clauses++
	// ErrAddAfterUnsat means the formula is already unsatisfiable; the
	// subsequent Solve call reports that, so the error is safely ignored.
	_ = c.solver.AddClause(lits...)
}

// Assert adds clauses forcing node n to be true.
func (c *Circuit) Assert(n Node) {
	switch n {
	case TrueNode:
		return
	case FalseNode:
		// Assert the empty clause: formula is unsatisfiable.
		c.addClause()
		return
	}
	gates, bins, longs, lits := c.unemitted()
	c.solver.Grow(gates)
	c.solver.Reserve(bins, longs, lits)
	c.addClause(c.litFor(n))
}

// unemitted counts the AND gates without a Tseitin variable yet, and
// the clauses emitting them adds: a gate of n children emits n binary
// clauses and one of n+1 literals. That bounds what litFor may create,
// so the solver can grow its per-variable slices, clause lists and
// arena once. Reserving capacity allocates no variable and adds no
// clause, so numbering and clauses do not move.
func (c *Circuit) unemitted() (gates, bins, longs, lits int) {
	for i := range c.gates {
		g := &c.gates[i]
		if g.n == 0 || g.v != varUnset {
			continue
		}
		gates++
		bins += int(g.n)
		if g.n == 1 {
			bins++
		} else {
			longs++
			lits += int(g.n) + 1
		}
	}
	return gates, bins, longs, lits
}

// NumClauses returns the number of CNF clauses emitted so far.
func (c *Circuit) NumClauses() int { return c.clauses }

// NumGateVars returns the number of Tseitin auxiliary variables created.
func (c *Circuit) NumGateVars() int { return c.gateVars }
