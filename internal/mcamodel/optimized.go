package mcamodel

import "repro/internal/relalg"

// BuildOptimized constructs the post-optimization model: every wide
// relation is factored through bidTriple and bidVector atoms connected
// by binary fields, and the integer order is replaced by a value
// signature with an exact succ chain (ordering tests use its transitive
// closure) — the abstractions Section IV introduces to cut the SAT
// translation size.
func BuildOptimized(sc Scope) (*Encoding, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.withDefaults()

	pn := atomNames("pnode", sc.PNodes)
	vn := atomNames("vnode", sc.VNodes)
	vals := atomNames("val", sc.Values)
	states := atomNames("state", sc.States)
	msgs := atomNames("msg", sc.Msgs)
	triples := atomNames("triple", sc.Triples)
	bvecs := atomNames("bvec", sc.BidVectors)

	var atoms []string
	atoms = append(atoms, pn...)
	atoms = append(atoms, vn...)
	atoms = append(atoms, vals...)
	atoms = append(atoms, states...)
	atoms = append(atoms, msgs...)
	atoms = append(atoms, triples...)
	atoms = append(atoms, bvecs...)
	u := relalg.NewUniverse(atoms...)
	b := relalg.NewBounds(u)

	rPnode := relalg.NewRelation("pnode", 1)
	rVnode := relalg.NewRelation("vnode", 1)
	rValue := relalg.NewRelation("value", 1)
	rState := relalg.NewRelation("netState", 1)
	rMsg := relalg.NewRelation("message", 1)
	rTriple := relalg.NewRelation("bidTriple", 1)
	rBvec := relalg.NewRelation("bidVector", 1)
	exactUnary(b, rPnode, pn)
	exactUnary(b, rVnode, vn)
	exactUnary(b, rValue, vals)
	exactUnary(b, rState, states)
	exactUnary(b, rMsg, msgs)
	exactUnary(b, rTriple, triples)
	exactUnary(b, rBvec, bvecs)

	// value ordering: exact succ chain; < is its transitive closure.
	rSucc := relalg.NewRelation("succ", 2)
	exactChain(b, rSucc, vals)
	lt := relalg.Closure(relalg.R(rSucc))

	rNext := relalg.NewRelation("next", 2)
	exactChain(b, rNext, states)

	rConn := relalg.NewRelation("pconnections", 2)
	upperProduct(b, rConn, pn, pn)

	// bidTriple fields (the paper's bid_v, bid_b, bid_t, bid_w).
	rTv := relalg.NewRelation("bid_v", 2)
	upperProduct(b, rTv, triples, vn)
	rTb := relalg.NewRelation("bid_b", 2)
	upperProduct(b, rTb, triples, vals)
	rTt := relalg.NewRelation("bid_t", 2)
	upperProduct(b, rTt, triples, vals)
	rTw := relalg.NewRelation("bid_w", 2) // lone: absent = NULL
	upperProduct(b, rTw, triples, pn)

	// bidVector fields: owner and per-item triples; states point to
	// bidVectors (the netState.bidVectors relation).
	rBvOwner := relalg.NewRelation("bvOwner", 2)
	upperProduct(b, rBvOwner, bvecs, pn)
	rBvTriples := relalg.NewRelation("bvTriples", 2)
	upperProduct(b, rBvTriples, bvecs, triples)
	rStateBv := relalg.NewRelation("bidVectors", 2)
	upperProduct(b, rStateBv, states, bvecs)

	// message fields: sender, receiver, and the carried bid vector.
	rMsgFrom := relalg.NewRelation("msgSender", 2)
	upperProduct(b, rMsgFrom, msgs, pn)
	rMsgTo := relalg.NewRelation("msgReceiver", 2)
	upperProduct(b, rMsgTo, msgs, pn)
	rMsgBv := relalg.NewRelation("msgVector", 2)
	upperProduct(b, rMsgBv, msgs, bvecs)
	rProcessed := relalg.NewRelation("processedAt", 2)
	upperProduct(b, rProcessed, states, msgs)

	// ---- Facts ----
	var facts []relalg.Formula

	s := relalg.NewVar("s")
	p := relalg.NewVar("p")
	q := relalg.NewVar("q")
	v := relalg.NewVar("v")
	m := relalg.NewVar("m")
	t := relalg.NewVar("t")

	stateE := relalg.R(rState)
	pnodeE := relalg.R(rPnode)
	vnodeE := relalg.R(rVnode)
	msgE := relalg.R(rMsg)
	tripleE := relalg.R(rTriple)
	bvecE := relalg.R(rBvec)

	// Triples are well-formed: one vnode, one bid, one time, lone winner.
	facts = append(facts,
		relalg.ForAll(t, tripleE, relalg.And(
			relalg.One(relalg.Join(relalg.V(t), relalg.R(rTv))),
			relalg.One(relalg.Join(relalg.V(t), relalg.R(rTb))),
			relalg.One(relalg.Join(relalg.V(t), relalg.R(rTt))),
			relalg.Lone(relalg.Join(relalg.V(t), relalg.R(rTw))),
		)))

	bv := relalg.NewVar("bv")
	// Bid vectors: one owner; exactly one triple per vnode.
	triplesOfFor := func(bv *relalg.Var, v *relalg.Var) relalg.Expr {
		// triples of bv whose bid_v is v
		return relalg.Intersect(
			relalg.Join(relalg.V(bv), relalg.R(rBvTriples)),
			relalg.Join(relalg.R(rTv), relalg.V(v)),
		)
	}
	facts = append(facts,
		relalg.ForAll(bv, bvecE, relalg.And(
			relalg.One(relalg.Join(relalg.V(bv), relalg.R(rBvOwner))),
			relalg.ForAll(v, vnodeE, relalg.One(triplesOfFor(bv, v))),
		)))

	// Every state has exactly one bid vector per pnode.
	bvOf := func(s, p *relalg.Var) relalg.Expr {
		return relalg.Intersect(
			relalg.Join(relalg.V(s), relalg.R(rStateBv)),
			relalg.Join(relalg.R(rBvOwner), relalg.V(p)),
		)
	}
	facts = append(facts,
		relalg.ForAll(s, stateE, relalg.ForAll(p, pnodeE, relalg.One(bvOf(s, p)))))

	// Messages: one sender, one receiver (connected), one carried vector
	// owned by the sender.
	facts = append(facts,
		relalg.ForAll(m, msgE, relalg.And(
			relalg.One(relalg.Join(relalg.V(m), relalg.R(rMsgFrom))),
			relalg.One(relalg.Join(relalg.V(m), relalg.R(rMsgTo))),
			relalg.One(relalg.Join(relalg.V(m), relalg.R(rMsgBv))),
			relalg.Subset(
				relalg.Product(
					relalg.Join(relalg.V(m), relalg.R(rMsgFrom)),
					relalg.Join(relalg.V(m), relalg.R(rMsgTo))),
				relalg.R(rConn)),
			relalg.Equal(
				relalg.Join(relalg.Join(relalg.V(m), relalg.R(rMsgBv)), relalg.R(rBvOwner)),
				relalg.Join(relalg.V(m), relalg.R(rMsgFrom))),
		)))

	// pconnectivity.
	facts = append(facts,
		relalg.Equal(relalg.R(rConn), relalg.Transpose(relalg.R(rConn))),
		relalg.No(relalg.Intersect(relalg.R(rConn), relalg.Iden())),
		relalg.ForAll(p, pnodeE, relalg.Some(relalg.Join(relalg.V(p), relalg.R(rConn)))),
	)

	// Navigation helpers over triples.
	tripleAt := func(s, p, v *relalg.Var) relalg.Expr {
		return relalg.Intersect(
			relalg.Join(bvOf(s, p), relalg.R(rBvTriples)),
			relalg.Join(relalg.R(rTv), relalg.V(v)),
		)
	}
	bidOf := func(e relalg.Expr) relalg.Expr { return relalg.Join(e, relalg.R(rTb)) }
	winOf := func(e relalg.Expr) relalg.Expr { return relalg.Join(e, relalg.R(rTw)) }
	msgTriple := func(m, v *relalg.Var) relalg.Expr {
		return relalg.Intersect(
			relalg.Join(relalg.Join(relalg.V(m), relalg.R(rMsgBv)), relalg.R(rBvTriples)),
			relalg.Join(relalg.R(rTv), relalg.V(v)),
		)
	}

	gt := func(a, bx relalg.Expr) relalg.Formula { // a < b in value order
		return relalg.Subset(relalg.Product(a, bx), lt)
	}

	// stateTransition: one processed message per non-final state; the
	// message's vector is the sender's current vector; the receiver does
	// the max-bid update per vnode, everyone else keeps their vector.
	sNext := relalg.NewVar("sn")
	hasNext := relalg.Some(relalg.Join(relalg.V(s), relalg.R(rNext)))
	procMsg := relalg.Join(relalg.V(s), relalg.R(rProcessed))

	transition := relalg.ForAll(s, stateE, relalg.Implies(hasNext,
		relalg.And(
			relalg.One(procMsg),
			relalg.ForAll(m, msgE, relalg.Implies(relalg.Subset(relalg.V(m), procMsg),
				relalg.And(
					// The carried vector is the sender's vector at s.
					relalg.ForAll(p, pnodeE, relalg.Implies(
						relalg.Subset(relalg.V(p), relalg.Join(relalg.V(m), relalg.R(rMsgFrom))),
						relalg.Equal(relalg.Join(relalg.V(m), relalg.R(rMsgBv)), bvOf(s, p)))),
					relalg.ForAll(sNext, relalg.Join(relalg.V(s), relalg.R(rNext)),
						relalg.ForAll(p, pnodeE,
							relalg.And(
								// Receiver: per-item triple update.
								relalg.Implies(relalg.Subset(relalg.V(p), relalg.Join(relalg.V(m), relalg.R(rMsgTo))),
									relalg.ForAll(v, vnodeE,
										relalg.And(
											relalg.Implies(gt(bidOf(tripleAt(s, p, v)), bidOf(msgTriple(m, v))),
												relalg.Equal(tripleAt(sNext, p, v), msgTriple(m, v))),
											relalg.Implies(relalg.Not(gt(bidOf(tripleAt(s, p, v)), bidOf(msgTriple(m, v)))),
												relalg.Equal(tripleAt(sNext, p, v), tripleAt(s, p, v))),
										))),
								// Non-receivers keep their entire vector.
								relalg.Implies(relalg.No(relalg.Intersect(relalg.V(p), relalg.Join(relalg.V(m), relalg.R(rMsgTo)))),
									relalg.Equal(bvOf(sNext, p), bvOf(s, p))),
							))),
				)))),
	))
	facts = append(facts, transition)

	// Initial bidding: first-state winners are the bidder itself.
	s0 := relalg.SingleExpr(u, states[0])
	bvAt0 := func(p *relalg.Var) relalg.Expr {
		return relalg.Intersect(
			relalg.Join(s0, relalg.R(rStateBv)),
			relalg.Join(relalg.R(rBvOwner), relalg.V(p)),
		)
	}
	initial := relalg.ForAll(p, pnodeE,
		relalg.Subset(
			relalg.Join(relalg.Join(bvAt0(p), relalg.R(rBvTriples)), relalg.R(rTw)),
			relalg.V(p)))
	facts = append(facts, initial)

	// Consensus assertion, parameterized by the trace state it ranges
	// over (the default uses the final state; ConsensusAt rebuilds it
	// over any state for per-state sweep variants).
	consensusAt := func(idx int) relalg.Formula {
		sAt := relalg.SingleExpr(u, states[idx])
		tripleIn := func(p, v *relalg.Var) relalg.Expr {
			return relalg.Intersect(
				relalg.Join(
					relalg.Intersect(
						relalg.Join(sAt, relalg.R(rStateBv)),
						relalg.Join(relalg.R(rBvOwner), relalg.V(p))),
					relalg.R(rBvTriples)),
				relalg.Join(relalg.R(rTv), relalg.V(v)),
			)
		}
		return relalg.ForAll(p, pnodeE, relalg.ForAll(q, pnodeE, relalg.ForAll(v, vnodeE,
			relalg.And(
				relalg.Equal(bidOf(tripleIn(p, v)), bidOf(tripleIn(q, v))),
				relalg.Equal(winOf(tripleIn(p, v)), winOf(tripleIn(q, v))),
			))))
	}

	return (&Encoding{
		Name:        "optimized",
		Scope:       sc,
		Bounds:      b,
		Background:  relalg.And(facts...),
		Consensus:   consensusAt(len(states) - 1),
		consensusAt: consensusAt,
	}).seal(), nil
}
