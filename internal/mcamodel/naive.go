package mcamodel

import "repro/internal/relalg"

// BuildNaive constructs the pre-optimization model: wide (ternary and
// quaternary) relations indexed directly by state, agent, and item, and
// an explicit integer-order relation over value atoms — the counterpart
// of the paper's first model with Alloy ternary relations and Int.
func BuildNaive(sc Scope) (*Encoding, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.withDefaults()

	pn := atomNames("pnode", sc.PNodes)
	vn := atomNames("vnode", sc.VNodes)
	// Alloy-style Int: the naive model pays for the full 2^bitwidth
	// integer atom range whether it needs it or not.
	vals := atomNames("Int", 1<<uint(sc.IntBitwidth))
	states := atomNames("state", sc.States)
	msgs := atomNames("msg", sc.Msgs)

	var atoms []string
	atoms = append(atoms, pn...)
	atoms = append(atoms, vn...)
	atoms = append(atoms, vals...)
	atoms = append(atoms, states...)
	atoms = append(atoms, msgs...)
	u := relalg.NewUniverse(atoms...)
	b := relalg.NewBounds(u)

	rPnode := relalg.NewRelation("pnode", 1)
	rVnode := relalg.NewRelation("vnode", 1)
	rValue := relalg.NewRelation("value", 1)
	rState := relalg.NewRelation("netState", 1)
	rMsg := relalg.NewRelation("message", 1)
	exactUnary(b, rPnode, pn)
	exactUnary(b, rVnode, vn)
	exactUnary(b, rValue, vals)
	exactUnary(b, rState, states)
	exactUnary(b, rMsg, msgs)

	// Integer order (Alloy Int surrogate) and state ordering.
	rLT := relalg.NewRelation("intLT", 2)
	exactOrder(b, rLT, vals)
	rNext := relalg.NewRelation("next", 2)
	exactChain(b, rNext, states)

	// Physical connectivity (the pconnections relation).
	rConn := relalg.NewRelation("pconnections", 2)
	upperProduct(b, rConn, pn, pn)

	// Wide dynamic relations: the naive encoding indexes bids, winners,
	// and times directly by (state, pnode, vnode, …).
	rBid := relalg.NewRelation("stateBid", 4) // state×pnode×vnode×value
	upperProduct(b, rBid, states, pn, vn, vals)
	rWin := relalg.NewRelation("stateWin", 4) // state×pnode×vnode×pnode
	upperProduct(b, rWin, states, pn, vn, pn)
	rTime := relalg.NewRelation("stateTime", 4) // state×pnode×vnode×value
	upperProduct(b, rTime, states, pn, vn, vals)

	// Message relations (ternary msgBids/msgWinners, as in the paper's
	// message signature).
	rMsgFrom := relalg.NewRelation("msgSender", 2)
	upperProduct(b, rMsgFrom, msgs, pn)
	rMsgTo := relalg.NewRelation("msgReceiver", 2)
	upperProduct(b, rMsgTo, msgs, pn)
	rMsgBid := relalg.NewRelation("msgBids", 3)
	upperProduct(b, rMsgBid, msgs, vn, vals)
	rMsgWin := relalg.NewRelation("msgWinners", 3)
	upperProduct(b, rMsgWin, msgs, vn, pn)
	// The message processed at each transition (buffMsgs counterpart).
	rProcessed := relalg.NewRelation("processedAt", 2)
	upperProduct(b, rProcessed, states, msgs)

	// ---- Facts ----
	var facts []relalg.Formula

	s := relalg.NewVar("s")
	p := relalg.NewVar("p")
	q := relalg.NewVar("q")
	v := relalg.NewVar("v")
	m := relalg.NewVar("m")

	stateE := relalg.R(rState)
	pnodeE := relalg.R(rPnode)
	vnodeE := relalg.R(rVnode)
	msgE := relalg.R(rMsg)

	bidAt := func(s, p, v *relalg.Var) relalg.Expr {
		return relalg.Join(relalg.V(v), relalg.Join(relalg.V(p), relalg.Join(relalg.V(s), relalg.R(rBid))))
	}
	winAt := func(s, p, v *relalg.Var) relalg.Expr {
		return relalg.Join(relalg.V(v), relalg.Join(relalg.V(p), relalg.Join(relalg.V(s), relalg.R(rWin))))
	}
	timeAt := func(s, p, v *relalg.Var) relalg.Expr {
		return relalg.Join(relalg.V(v), relalg.Join(relalg.V(p), relalg.Join(relalg.V(s), relalg.R(rTime))))
	}
	msgBid := func(m, v *relalg.Var) relalg.Expr {
		return relalg.Join(relalg.V(v), relalg.Join(relalg.V(m), relalg.R(rMsgBid)))
	}
	msgWin := func(m, v *relalg.Var) relalg.Expr {
		return relalg.Join(relalg.V(v), relalg.Join(relalg.V(m), relalg.R(rMsgWin)))
	}

	// Functionality: every (state, pnode, vnode) has exactly one bid and
	// one time, and at most one winner (NULL = absent).
	facts = append(facts,
		relalg.ForAll(s, stateE, relalg.ForAll(p, pnodeE, relalg.ForAll(v, vnodeE,
			relalg.And(
				relalg.One(bidAt(s, p, v)),
				relalg.One(timeAt(s, p, v)),
				relalg.Lone(winAt(s, p, v)),
			)))))

	// Messages have one sender, one receiver, functional vectors; sender
	// and receiver are connected neighbors (first-hop exchange).
	facts = append(facts,
		relalg.ForAll(m, msgE, relalg.And(
			relalg.One(relalg.Join(relalg.V(m), relalg.R(rMsgFrom))),
			relalg.One(relalg.Join(relalg.V(m), relalg.R(rMsgTo))),
			relalg.Subset(
				relalg.Product(
					relalg.Join(relalg.V(m), relalg.R(rMsgFrom)),
					relalg.Join(relalg.V(m), relalg.R(rMsgTo))),
				relalg.R(rConn)),
			relalg.ForAll(v, vnodeE, relalg.And(
				relalg.One(msgBid(m, v)),
				relalg.Lone(msgWin(m, v)),
			)))))

	// pconnectivity: links are symmetric and irreflexive (the paper's
	// fact modeling undirected physical links as two directed tuples).
	facts = append(facts,
		relalg.Equal(relalg.R(rConn), relalg.Transpose(relalg.R(rConn))),
		relalg.No(relalg.Intersect(relalg.R(rConn), relalg.Iden())),
		relalg.ForAll(p, pnodeE, relalg.Some(relalg.Join(relalg.V(p), relalg.R(rConn)))),
	)

	// stateTransition: every non-final state processes exactly one
	// message, whose bid vector is the sender's current view; the
	// receiver performs the max-bid update per item, everyone else is
	// framed.
	sNext := relalg.NewVar("sn")
	hasNext := relalg.Some(relalg.Join(relalg.V(s), relalg.R(rNext)))
	procMsg := relalg.Join(relalg.V(s), relalg.R(rProcessed))

	gt := func(a, b relalg.Expr) relalg.Formula { // a < b in value order
		return relalg.Subset(relalg.Product(a, b), relalg.R(rLT))
	}

	transition := relalg.ForAll(s, stateE, relalg.Implies(hasNext,
		relalg.And(
			relalg.One(procMsg),
			relalg.ForAll(m, msgE, relalg.Implies(relalg.Subset(relalg.V(m), procMsg),
				relalg.And(
					// Message carries the sender's current vectors.
					relalg.ForAll(v, vnodeE, relalg.ForAll(p, pnodeE, relalg.Implies(
						relalg.Subset(relalg.V(p), relalg.Join(relalg.V(m), relalg.R(rMsgFrom))),
						relalg.And(
							relalg.Equal(msgBid(m, v), bidAt(s, p, v)),
							relalg.Equal(msgWin(m, v), winAt(s, p, v)),
						)))),
					// Per-pnode update/frame in the next state.
					relalg.ForAll(sNext, relalg.Join(relalg.V(s), relalg.R(rNext)),
						relalg.ForAll(p, pnodeE, relalg.ForAll(v, vnodeE,
							relalg.And(
								// Receiver: adopt the message entry when it
								// carries a strictly higher bid, else keep.
								relalg.Implies(relalg.Subset(relalg.V(p), relalg.Join(relalg.V(m), relalg.R(rMsgTo))),
									relalg.And(
										relalg.Implies(gt(bidAt(s, p, v), msgBid(m, v)),
											relalg.And(
												relalg.Equal(bidAt(sNext, p, v), msgBid(m, v)),
												relalg.Equal(winAt(sNext, p, v), msgWin(m, v)),
											)),
										relalg.Implies(relalg.Not(gt(bidAt(s, p, v), msgBid(m, v))),
											relalg.And(
												relalg.Equal(bidAt(sNext, p, v), bidAt(s, p, v)),
												relalg.Equal(winAt(sNext, p, v), winAt(s, p, v)),
											)),
									)),
								// Non-receivers are framed.
								relalg.Implies(relalg.No(relalg.Intersect(relalg.V(p), relalg.Join(relalg.V(m), relalg.R(rMsgTo)))),
									relalg.And(
										relalg.Equal(bidAt(sNext, p, v), bidAt(s, p, v)),
										relalg.Equal(winAt(sNext, p, v), winAt(s, p, v)),
									)),
								// Times are framed throughout (asynchronous
								// stamps kept for the conflict table).
								relalg.Equal(timeAt(sNext, p, v), timeAt(s, p, v)),
							)))),
				)))),
	))
	facts = append(facts, transition)

	// Initial bidding: in the first state every pnode believes itself
	// the winner of whatever it bids on (winner = itself or absent).
	s0 := relalg.SingleExpr(u, states[0])
	p2 := relalg.NewVar("p2")
	initial := relalg.ForAll(p, pnodeE, relalg.ForAll(v, vnodeE,
		relalg.ForAll(p2, relalg.Join(relalg.V(v), relalg.Join(relalg.V(p), relalg.Join(s0, relalg.R(rWin)))),
			relalg.Subset(relalg.V(p2), relalg.V(p)))))
	facts = append(facts, initial)

	// Consensus assertion: all agents agree on winners and winning bids
	// (the paper's consensusPred). Parameterized by the trace state it
	// ranges over — the default assertion uses the final state, and
	// ConsensusAt rebuilds it over any state so a sweep of per-state
	// variants shares these bounds and facts.
	consensusAt := func(idx int) relalg.Formula {
		sAt := relalg.SingleExpr(u, states[idx])
		bidIn := func(p, v *relalg.Var) relalg.Expr {
			return relalg.Join(relalg.V(v), relalg.Join(relalg.V(p), relalg.Join(sAt, relalg.R(rBid))))
		}
		winIn := func(p, v *relalg.Var) relalg.Expr {
			return relalg.Join(relalg.V(v), relalg.Join(relalg.V(p), relalg.Join(sAt, relalg.R(rWin))))
		}
		return relalg.ForAll(p, pnodeE, relalg.ForAll(q, pnodeE, relalg.ForAll(v, vnodeE,
			relalg.And(
				relalg.Equal(bidIn(p, v), bidIn(q, v)),
				relalg.Equal(winIn(p, v), winIn(q, v)),
			))))
	}

	return (&Encoding{
		Name:        "naive",
		Scope:       sc,
		Bounds:      b,
		Background:  relalg.And(facts...),
		Consensus:   consensusAt(len(states) - 1),
		consensusAt: consensusAt,
	}).seal(), nil
}
