package relalg

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sat"
)

// cell is one populated entry of a matrix.
type cell struct {
	key  uint64
	node Node
}

// matrix is a sparse boolean matrix: an immutable vector of cells in
// ascending tuple-key order. Absent keys denote FalseNode, which is
// never stored. All keys share one arity. Every translation loop walks
// cells in this order, so gate creation — and therefore the CNF, which
// experiment E5 measures and mcamodel's digest test pins — is
// deterministic.
type matrix struct {
	arity int
	cells []cell
}

func cellKeyCmp(c cell, k uint64) int { return cmp.Compare(c.key, k) }
func cellCmp(a, b cell) int           { return cmp.Compare(a.key, b.key) }

// at returns the node at key k (FalseNode when absent) for callers that
// ask for ascending keys: it scans forward from *i, the position the
// previous call left behind.
func (m *matrix) at(i *int, k uint64) Node {
	for *i < len(m.cells) && m.cells[*i].key < k {
		*i++
	}
	if *i < len(m.cells) && m.cells[*i].key == k {
		return m.cells[*i].node
	}
	return FalseNode
}

// put appends a cell whose key is above every key already present.
func (m *matrix) put(k uint64, n Node) {
	if n != FalseNode {
		m.cells = append(m.cells, cell{k, n})
	}
}

// cacheKey identifies one translation: an AST node (by pointer) under
// one assignment of atoms to the node's free variables, packed base
// usize in free-variable order.
type cacheKey struct {
	node    any
	binding uint64
}

// Translator converts relational expressions and formulas over bounded
// relations into a boolean circuit, Kodkod-style. It caches every
// translation by (node, binding of the node's free variables): a closed
// sub-expression is translated once per translator and a sub-formula
// under nested quantifiers once per binding of the variables it
// mentions. A hit skips only work whose every gate would have been a
// hash-cons hit, so the cache never changes the circuit.
type Translator struct {
	bounds  *Bounds
	circuit *Circuit
	usize   int

	// relMatrices holds, per relation, the input node of each
	// undetermined tuple; determined tuples are constants.
	relMatrices map[*Relation]*matrix
	primaryVars map[*Relation]map[uint64]sat.Var

	env map[*Var]int // quantified variable -> atom

	free  map[any][]*Var // free variables of each AST node visited
	exprs map[cacheKey]*matrix
	fmls  map[cacheKey]Node

	terms []cell // join's product terms
	group []Node // join's terms of one output cell
}

// NewTranslator prepares a translator over the given bounds, allocating
// one primary SAT variable (via the circuit) per undetermined tuple.
func NewTranslator(b *Bounds, c *Circuit) *Translator {
	tr := &Translator{
		bounds:      b,
		circuit:     c,
		usize:       b.Universe().Size(),
		relMatrices: make(map[*Relation]*matrix),
		primaryVars: make(map[*Relation]map[uint64]sat.Var),
		env:         make(map[*Var]int),
		free:        make(map[any][]*Var),
		exprs:       make(map[cacheKey]*matrix),
		fmls:        make(map[cacheKey]Node),
	}
	for _, r := range b.Relations() {
		lower, upper := b.Lower(r), b.Upper(r)
		m := &matrix{arity: r.Arity}
		vars := make(map[uint64]sat.Var)
		for _, t := range upper.Tuples() {
			k := t.key(tr.usize)
			if lower.Contains(t) {
				m.put(k, TrueNode)
			} else {
				in := c.NewInput()
				m.put(k, in)
				vars[k] = c.InputVar(in)
			}
		}
		tr.relMatrices[r] = m
		tr.primaryVars[r] = vars
	}
	return tr
}

// PrimaryVars exposes the primary variable of each undetermined tuple,
// used for model decoding and blocking-clause enumeration.
func (tr *Translator) PrimaryVars(r *Relation) map[uint64]sat.Var { return tr.primaryVars[r] }

// NumPrimaryVars counts undetermined tuples across all relations.
func (tr *Translator) NumPrimaryVars() int {
	n := 0
	for _, vs := range tr.primaryVars {
		n += len(vs)
	}
	return n
}

// freeVars returns the variables node mentions outside any binder of
// its own, memoised per node. A quantifier's domain is outside the
// quantifier's scope.
func (tr *Translator) freeVars(node any) []*Var {
	if fv, ok := tr.free[node]; ok {
		return fv
	}
	var fv []*Var
	switch x := node.(type) {
	case *VarExpr:
		fv = []*Var{x.V}
	case *BinExpr:
		fv = varUnion(tr.freeVars(x.L), tr.freeVars(x.R))
	case *UnExpr:
		fv = tr.freeVars(x.E)
	case *CompareFormula:
		fv = varUnion(tr.freeVars(x.L), tr.freeVars(x.R))
	case *MultFormula:
		fv = tr.freeVars(x.E)
	case *NotFormula:
		fv = tr.freeVars(x.F)
	case *NaryFormula:
		for _, sub := range x.Fs {
			fv = varUnion(fv, tr.freeVars(sub))
		}
	case *QuantFormula:
		var body []*Var
		for _, v := range tr.freeVars(x.Body) {
			if v != x.V {
				body = append(body, v)
			}
		}
		fv = varUnion(tr.freeVars(x.Over), body)
	case *CardFormula:
		fv = tr.freeVars(x.E)
	}
	tr.free[node] = fv
	return fv
}

// varUnion returns a followed by the variables of b not in a. The
// result may share either argument, so callers never write to it.
func varUnion(a, b []*Var) []*Var {
	if len(a) == 0 {
		return b
	}
	out := a
	for _, v := range b {
		if !slices.Contains(a, v) {
			if len(out) == len(a) {
				out = slices.Clone(a)
			}
			out = append(out, v)
		}
	}
	return out
}

// key builds the cache key of node under the current environment. It
// reports false when a free variable is unbound (visiting it panics) or
// the binding does not fit the packed word (more free variables than
// log_usize 2^64); such a node is translated afresh on every visit.
func (tr *Translator) key(node any) (cacheKey, bool) {
	u := uint64(tr.usize)
	b := uint64(0)
	for _, v := range tr.freeVars(node) {
		a, ok := tr.env[v]
		if !ok || b > (^uint64(0)-uint64(a))/u {
			return cacheKey{}, false
		}
		b = b*u + uint64(a)
	}
	return cacheKey{node, b}, true
}

// TranslateExpr builds the boolean matrix of e, once per binding of e's
// free variables. Leaves cost less than a cache probe and bypass it.
func (tr *Translator) TranslateExpr(e Expr) *matrix {
	switch e.(type) {
	case *BinExpr, *UnExpr:
	default:
		return tr.translateExpr(e)
	}
	key, cacheable := tr.key(e)
	if cacheable {
		if m, ok := tr.exprs[key]; ok {
			return m
		}
	}
	m := tr.translateExpr(e)
	if cacheable {
		tr.exprs[key] = m
	}
	return m
}

func (tr *Translator) translateExpr(e Expr) *matrix {
	switch x := e.(type) {
	case *RelExpr:
		m, ok := tr.relMatrices[x.R]
		if !ok {
			panic(fmt.Sprintf("relalg: relation %q has no bounds", x.R.Name))
		}
		return m
	case *VarExpr:
		a, ok := tr.env[x.V]
		if !ok {
			panic(fmt.Sprintf("relalg: unbound variable %q", x.V.Name))
		}
		return &matrix{arity: 1, cells: []cell{{uint64(a), TrueNode}}}
	case *AtomExpr:
		return &matrix{arity: 1, cells: []cell{{uint64(x.Atom), TrueNode}}}
	case *ConstExpr:
		switch x.Kind {
		case ConstIden:
			return tr.iden()
		case ConstUniv:
			m := &matrix{arity: 1}
			for a := 0; a < tr.usize; a++ {
				m.put(uint64(a), TrueNode)
			}
			return m
		default:
			return &matrix{arity: x.arity}
		}
	case *BinExpr:
		return tr.translateBin(x)
	case *UnExpr:
		return tr.translateUn(x)
	}
	panic(fmt.Sprintf("relalg: unhandled expression %T", e))
}

func (tr *Translator) iden() *matrix {
	m := &matrix{arity: 2}
	for a := 0; a < tr.usize; a++ {
		m.put(Tuple{a, a}.key(tr.usize), TrueNode)
	}
	return m
}

func (tr *Translator) translateBin(x *BinExpr) *matrix {
	l := tr.TranslateExpr(x.L)
	r := tr.TranslateExpr(x.R)
	c := tr.circuit
	switch x.Op {
	case OpUnion:
		return tr.union(l, r)
	case OpIntersect:
		out := &matrix{arity: l.arity, cells: make([]cell, 0, min(len(l.cells), len(r.cells)))}
		j := 0
		for _, lc := range l.cells {
			out.put(lc.key, c.and2(lc.node, r.at(&j, lc.key)))
		}
		return out
	case OpDifference:
		out := &matrix{arity: l.arity, cells: make([]cell, 0, len(l.cells))}
		j := 0
		for _, lc := range l.cells {
			out.put(lc.key, c.and2(lc.node, -r.at(&j, lc.key)))
		}
		return out
	case OpJoin:
		return tr.join(l, r)
	case OpProduct:
		out := &matrix{arity: l.arity + r.arity, cells: make([]cell, 0, len(l.cells)*len(r.cells))}
		shift := pow(tr.usize, r.arity)
		for _, lc := range l.cells {
			for _, rc := range r.cells {
				out.put(lc.key*shift+rc.key, c.and2(lc.node, rc.node))
			}
		}
		return out
	}
	panic("relalg: unhandled binary op")
}

// union merges two matrices, disjoining the cells they share.
func (tr *Translator) union(l, r *matrix) *matrix {
	out := &matrix{arity: l.arity, cells: make([]cell, 0, len(l.cells)+len(r.cells))}
	i, j := 0, 0
	for i < len(l.cells) && j < len(r.cells) {
		lc, rc := l.cells[i], r.cells[j]
		switch {
		case lc.key < rc.key:
			out.cells = append(out.cells, lc)
			i++
		case lc.key > rc.key:
			out.cells = append(out.cells, rc)
			j++
		default:
			out.put(lc.key, tr.circuit.or2(lc.node, rc.node))
			i++
			j++
		}
	}
	out.cells = append(out.cells, l.cells[i:]...)
	out.cells = append(out.cells, r.cells[j:]...)
	return out
}

// join matches each left cell with the run of right cells whose first
// column is the left cell's last, conjoins the pairs in (left, right)
// key order, and disjoins the terms landing on one output key.
func (tr *Translator) join(l, r *matrix) *matrix {
	c := tr.circuit
	u := uint64(tr.usize)
	rsuffix := pow(tr.usize, r.arity-1)
	terms := tr.terms[:0]
	sorted := true
	for _, lc := range l.cells {
		lprefix, llast := lc.key/u, lc.key%u
		lo := llast * rsuffix
		i, _ := slices.BinarySearchFunc(r.cells, lo, cellKeyCmp)
		for ; i < len(r.cells) && r.cells[i].key < lo+rsuffix; i++ {
			n := c.and2(lc.node, r.cells[i].node)
			if n == FalseNode {
				continue
			}
			k := lprefix*rsuffix + r.cells[i].key - lo
			if len(terms) > 0 && k < terms[len(terms)-1].key {
				sorted = false
			}
			terms = append(terms, cell{k, n})
		}
	}
	tr.terms = terms
	if !sorted {
		slices.SortStableFunc(terms, cellCmp)
	}
	out := &matrix{arity: l.arity + r.arity - 2}
	for i := 0; i < len(terms); {
		j := i + 1
		for j < len(terms) && terms[j].key == terms[i].key {
			j++
		}
		n := terms[i].node
		if j > i+1 {
			group := tr.group[:0]
			for _, t := range terms[i:j] {
				group = append(group, t.node)
			}
			tr.group = group
			n = c.Or(group...)
		}
		out.put(terms[i].key, n)
		i = j
	}
	return out
}

func (tr *Translator) translateUn(x *UnExpr) *matrix {
	m := tr.TranslateExpr(x.E)
	switch x.Op {
	case OpTranspose:
		u := uint64(tr.usize)
		out := &matrix{arity: 2, cells: make([]cell, len(m.cells))}
		for i, c := range m.cells {
			out.cells[i] = cell{c.key%u*u + c.key/u, c.node}
		}
		slices.SortFunc(out.cells, cellCmp)
		return out
	case OpClosure, OpReflexiveClosure:
		// Iterative squaring: after ceil(log2(usize)) rounds the matrix
		// covers all simple path lengths.
		cur := m
		for steps := 1; steps < tr.usize; steps *= 2 {
			cur = tr.union(cur, tr.join(cur, cur))
		}
		if x.Op == OpReflexiveClosure {
			return tr.union(cur, tr.iden())
		}
		return cur
	}
	panic("relalg: unhandled unary op")
}

// TranslateFormula builds the circuit node of f, once per binding of
// f's free variables.
func (tr *Translator) TranslateFormula(f Formula) Node {
	switch x := f.(type) {
	case *BoolFormula:
		if x.Value {
			return TrueNode
		}
		return FalseNode
	case *NotFormula:
		return -tr.TranslateFormula(x.F)
	}
	key, cacheable := tr.key(f)
	if cacheable {
		if n, ok := tr.fmls[key]; ok {
			return n
		}
	}
	n := tr.translateFormula(f)
	if cacheable {
		tr.fmls[key] = n
	}
	return n
}

// subset builds a ⊆ b: every cell of a implies the same cell of b.
func (tr *Translator) subset(a, b *matrix) Node {
	parts := make([]Node, len(a.cells))
	j := 0
	for i, ac := range a.cells {
		parts[i] = tr.circuit.Implies(ac.node, b.at(&j, ac.key))
	}
	return tr.circuit.And(parts...)
}

func (tr *Translator) translateFormula(f Formula) Node {
	c := tr.circuit
	switch x := f.(type) {
	case *CompareFormula:
		l := tr.TranslateExpr(x.L)
		r := tr.TranslateExpr(x.R)
		if x.Op == OpSubset {
			return tr.subset(l, r)
		}
		return c.and2(tr.subset(l, r), tr.subset(r, l))
	case *MultFormula:
		entries := tr.entries(x.E)
		switch x.Mult {
		case MultSome:
			return c.Or(entries...)
		case MultNo:
			return -c.Or(entries...)
		case MultOne:
			return c.and2(c.Or(entries...), c.AtMostOne(entries...))
		default:
			return c.AtMostOne(entries...)
		}
	case *NaryFormula:
		parts := make([]Node, len(x.Fs))
		for i, sub := range x.Fs {
			parts[i] = tr.TranslateFormula(sub)
		}
		if x.Op == OpAnd {
			return c.And(parts...)
		}
		return c.Or(parts...)
	case *QuantFormula:
		over := tr.TranslateExpr(x.Over)
		outer, shadowed := tr.env[x.V]
		parts := make([]Node, 0, len(over.cells))
		for _, oc := range over.cells {
			tr.env[x.V] = int(oc.key)
			body := tr.TranslateFormula(x.Body)
			if x.Quant == QuantAll {
				parts = append(parts, c.Implies(oc.node, body))
			} else {
				parts = append(parts, c.and2(oc.node, body))
			}
		}
		if shadowed {
			tr.env[x.V] = outer
		} else {
			delete(tr.env, x.V)
		}
		if x.Quant == QuantAll {
			return c.And(parts...)
		}
		return c.Or(parts...)
	case *CardFormula:
		entries := tr.entries(x.E)
		if x.Op == CardLE {
			return c.CardLE(entries, x.K)
		}
		return c.CardGE(entries, x.K)
	}
	panic(fmt.Sprintf("relalg: unhandled formula %T", f))
}

// entries lists the cell nodes of e's matrix in key order.
func (tr *Translator) entries(e Expr) []Node {
	m := tr.TranslateExpr(e)
	entries := make([]Node, len(m.cells))
	for i, c := range m.cells {
		entries[i] = c.node
	}
	return entries
}

func pow(base, exp int) uint64 {
	r := uint64(1)
	for i := 0; i < exp; i++ {
		r *= uint64(base)
	}
	return r
}
