package relalg

import "fmt"

// Evaluator computes concrete values of expressions and truth values of
// formulas against an Instance. It is the semantic reference the
// SAT-based model finder is validated against: any instance the finder
// returns must re-evaluate its formula to true.
type Evaluator struct {
	inst *Instance
	env  map[*Var]int // variable -> atom index
}

// NewEvaluator creates an evaluator over an instance.
func NewEvaluator(inst *Instance) *Evaluator {
	return &Evaluator{inst: inst, env: make(map[*Var]int)}
}

// EvalExpr computes the tuple set denoted by e.
func (ev *Evaluator) EvalExpr(e Expr) *TupleSet {
	u := ev.inst.Universe()
	switch x := e.(type) {
	case *RelExpr:
		return ev.inst.Get(x.R).Clone()
	case *VarExpr:
		a, ok := ev.env[x.V]
		if !ok {
			panic(fmt.Sprintf("relalg: unbound variable %q", x.V.Name))
		}
		return NewTupleSet(u, 1).Add(Tuple{a})
	case *AtomExpr:
		return NewTupleSet(u, 1).Add(Tuple{x.Atom})
	case *ConstExpr:
		switch x.Kind {
		case ConstIden:
			s := NewTupleSet(u, 2)
			for a := 0; a < u.Size(); a++ {
				s.Add(Tuple{a, a})
			}
			return s
		case ConstUniv:
			s := NewTupleSet(u, 1)
			for a := 0; a < u.Size(); a++ {
				s.Add(Tuple{a})
			}
			return s
		default:
			return NewTupleSet(u, x.arity)
		}
	case *BinExpr:
		l := ev.EvalExpr(x.L)
		r := ev.EvalExpr(x.R)
		switch x.Op {
		case OpUnion:
			return l.Clone().UnionWith(r)
		case OpIntersect:
			out := NewTupleSet(u, l.Arity())
			for _, t := range l.Tuples() {
				if r.Contains(t) {
					out.Add(t)
				}
			}
			return out
		case OpDifference:
			out := NewTupleSet(u, l.Arity())
			for _, t := range l.Tuples() {
				if !r.Contains(t) {
					out.Add(t)
				}
			}
			return out
		case OpJoin:
			return evalJoin(u, l, r)
		case OpProduct:
			out := NewTupleSet(u, l.Arity()+r.Arity())
			for _, lt := range l.Tuples() {
				for _, rt := range r.Tuples() {
					t := append(append(Tuple{}, lt...), rt...)
					out.Add(t)
				}
			}
			return out
		}
	case *UnExpr:
		v := ev.EvalExpr(x.E)
		switch x.Op {
		case OpTranspose:
			out := NewTupleSet(u, 2)
			for _, t := range v.Tuples() {
				out.Add(Tuple{t[1], t[0]})
			}
			return out
		case OpClosure:
			return closure(u, v, false)
		case OpReflexiveClosure:
			return closure(u, v, true)
		}
	}
	panic(fmt.Sprintf("relalg: unhandled expression %T", e))
}

func evalJoin(u *Universe, l, r *TupleSet) *TupleSet {
	arity := l.Arity() + r.Arity() - 2
	out := NewTupleSet(u, arity)
	for _, lt := range l.Tuples() {
		for _, rt := range r.Tuples() {
			if lt[len(lt)-1] != rt[0] {
				continue
			}
			t := append(append(Tuple{}, lt[:len(lt)-1]...), rt[1:]...)
			out.Add(t)
		}
	}
	return out
}

func closure(u *Universe, v *TupleSet, reflexive bool) *TupleSet {
	out := v.Clone()
	for {
		next := evalJoin(u, out, v).UnionWith(out)
		if next.Equal(out) {
			break
		}
		out = next
	}
	if reflexive {
		for a := 0; a < u.Size(); a++ {
			out.Add(Tuple{a, a})
		}
	}
	return out
}

// EvalFormula computes the truth value of f.
func (ev *Evaluator) EvalFormula(f Formula) bool {
	switch x := f.(type) {
	case *BoolFormula:
		return x.Value
	case *CompareFormula:
		l := ev.EvalExpr(x.L)
		r := ev.EvalExpr(x.R)
		if x.Op == OpSubset {
			return r.ContainsAll(l)
		}
		return l.Equal(r)
	case *MultFormula:
		n := ev.EvalExpr(x.E).Len()
		switch x.Mult {
		case MultSome:
			return n > 0
		case MultNo:
			return n == 0
		case MultOne:
			return n == 1
		default:
			return n <= 1
		}
	case *NotFormula:
		return !ev.EvalFormula(x.F)
	case *NaryFormula:
		if x.Op == OpAnd {
			for _, sub := range x.Fs {
				if !ev.EvalFormula(sub) {
					return false
				}
			}
			return true
		}
		for _, sub := range x.Fs {
			if ev.EvalFormula(sub) {
				return true
			}
		}
		return false
	case *QuantFormula:
		domain := ev.EvalExpr(x.Over)
		outer, shadowed := ev.env[x.V]
		result := x.Quant == QuantAll
		for _, t := range domain.Tuples() {
			ev.env[x.V] = t[0]
			if ev.EvalFormula(x.Body) != result {
				result = !result
				break
			}
		}
		if shadowed {
			ev.env[x.V] = outer
		} else {
			delete(ev.env, x.V)
		}
		return result
	case *CardFormula:
		n := ev.EvalExpr(x.E).Len()
		if x.Op == CardLE {
			return n <= x.K
		}
		return n >= x.K
	}
	panic(fmt.Sprintf("relalg: unhandled formula %T", f))
}
