package explore

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// ViolationKind classifies a failed check.
type ViolationKind int

// Violation kinds.
const (
	// ViolationNone means the property held.
	ViolationNone ViolationKind = iota
	// ViolationOscillation is a reachable state cycle with pending
	// messages: the protocol can loop forever (Fig. 2).
	ViolationOscillation
	// ViolationBoundExceeded is a path that processed the full message
	// budget without reaching consensus (the paper's consensus assertion
	// fails for this val).
	ViolationBoundExceeded
	// ViolationDisagreement is a quiescent state whose agents disagree.
	ViolationDisagreement
	// ViolationConflict is a quiescent state where two agents both
	// believe they hold the same item.
	ViolationConflict
)

// violationTokens is the result-document vocabulary of ViolationKind,
// indexed by kind; ViolationNone is the omitted field.
var violationTokens = [...]string{
	ViolationNone:          "",
	ViolationOscillation:   "oscillation",
	ViolationBoundExceeded: "bound-exceeded",
	ViolationDisagreement:  "disagreement",
	ViolationConflict:      "conflict",
}

// String names the violation.
func (v ViolationKind) String() string {
	switch {
	case v == ViolationNone:
		return "none"
	case v > 0 && int(v) < len(violationTokens):
		return violationTokens[v]
	default:
		return fmt.Sprintf("violation(%d)", int(v))
	}
}

// MarshalText renders the kind as its document token.
func (v ViolationKind) MarshalText() ([]byte, error) {
	return tokenOf(violationTokens[:], int(v), "violation kind")
}

// UnmarshalText parses a document token.
func (v *ViolationKind) UnmarshalText(text []byte) error {
	k, err := parseToken(violationTokens[:], text, "violation kind")
	*v = ViolationKind(k)
	return err
}

// tokenOf and parseToken are the two directions of an enum's token
// table, which is indexed by the enum's values from 0.
func tokenOf(table []string, v int, what string) ([]byte, error) {
	if v < 0 || v >= len(table) {
		return nil, fmt.Errorf("explore: unencodable %s %d", what, v)
	}
	return []byte(table[v]), nil
}

func parseToken(table []string, text []byte, what string) (int, error) {
	for v, tok := range table {
		if tok == string(text) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("explore: unknown %s %q (want %s)", what, text, strings.Join(table[1:], "|"))
}

// Options tunes a check.
type Options struct {
	// Bound is the message budget (the paper's val parameter). Zero
	// derives D·|J| · BoundSlack from the agent graph.
	Bound int
	// BoundSlack multiplies the derived bound (default 4): the D·|J|
	// bound from the consensus literature counts synchronized full
	// exchanges, while the explorer counts single message deliveries.
	BoundSlack int
	// HardLimitFactor multiplies Bound to produce the absolute delivery
	// cap (default 8). The consensus assertion counts state-changing
	// deliveries against Bound; no-op deliveries merely drain queue
	// backlog and are tolerated up to the hard limit, which catches
	// genuinely diverging executions.
	HardLimitFactor int
	// MaxStates caps the number of distinct states visited (default
	// 200000); exceeding it yields an inconclusive verdict with
	// Verdict.Capped set.
	MaxStates int
	// QueueDepth bounds each directed channel to this many in-flight
	// messages (default 2: the oldest plus the latest; the tail
	// coalesces). 0 keeps the default; negative means unbounded.
	QueueDepth int
	// DisableVisitedSet turns off state memoization (ablation). Serial
	// Check only; CheckParallel ignores it — its seen-set is also the
	// sharding structure.
	DisableVisitedSet bool
	// DuplicateDeliveries additionally branches on delivering each
	// pending message WITHOUT consuming it — fault injection for
	// at-least-once channels. The MCA merge is idempotent, so honest
	// configurations must still verify.
	DuplicateDeliveries bool
	// Store selects the seen-set representation (serial Check only).
	// The lossy modes (StoreBitstate, StoreHashCompact) bound memory at
	// the price of a quantified per-lookup miss probability, reported
	// as Verdict.MissProb; they may under-explore but never invent a
	// violation. CheckParallel ignores lossy modes the way it ignores
	// DisableVisitedSet — its seen-set is also the sharding structure —
	// and the engine adapter rejects the combination loudly.
	Store StoreKind
	// StoreBits sizes the lossy stores as a power of two: bitstate uses
	// a bit array of 2^StoreBits bits, hash compaction a fixed table of
	// 2^StoreBits 32-bit fingerprint slots. 0 picks the defaults (2^26
	// bits / 2^22 slots).
	StoreBits int
	// SpillDir, when non-empty, enables disk spill of sealed shard
	// tables (CheckParallel only): a shard whose sealed seen-set grows
	// past SpillStates entries writes it to a sorted segment file under
	// a per-run temp directory inside SpillDir (atomic rename) and
	// drops the in-memory table, deduplicating arrivals by sequential
	// merge against the segment. Spill is a runtime memory optimization
	// only — verdicts, traces, and state counts are identical to an
	// in-core run — so it is excluded from the canonical scenario codec
	// and the cache key. The temp directory is removed when the check
	// returns, including on cancellation.
	SpillDir string
	// SpillStates is the per-shard sealed-entry threshold that triggers
	// a spill (default 1<<20 when SpillDir is set).
	SpillStates int
	// Cancel, when non-nil, is polled periodically during exploration;
	// once it returns true the check stops and reports an inconclusive
	// (Exhausted=false) verdict. This is the cooperative hook the engine
	// layer drives from context cancellation and deadlines.
	Cancel func() bool
}

// Largest Bound, and largest BoundSlack and HardLimitFactor, a scenario
// may state (engine.Scenario.Validate enforces them): withDefaults and
// hardLimit multiply these, and a product that wraps turns the hard
// limit into 0 — every state a bound-exceeded violation.
const (
	MaxBound       = 1 << 30
	MaxBoundFactor = 1 << 10
)

func (o Options) withDefaults(g *graph.Graph, items int) Options {
	if o.BoundSlack <= 0 {
		o.BoundSlack = 4
	}
	if o.Bound <= 0 {
		o.Bound = mca.MessageBound(g, items)*o.BoundSlack + 4
	}
	if o.HardLimitFactor <= 0 {
		o.HardLimitFactor = 8
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 200000
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 2
	}
	if o.SpillDir != "" && o.SpillStates <= 0 {
		o.SpillStates = 1 << 20
	}
	return o
}

func (o Options) hardLimit() int { return o.Bound * o.HardLimitFactor }

// Verdict is the outcome of a check.
type Verdict struct {
	// OK reports that every explored execution satisfies the consensus
	// property. Only meaningful when Exhausted.
	OK bool
	// Violation classifies the counterexample when !OK.
	Violation ViolationKind
	// Trace is the counterexample path (nil when OK).
	Trace *trace.Recorder
	// States is the number of distinct canonical states actually
	// explored — the true count even when it overshoots MaxStates
	// (CheckParallel stops at level granularity, so a budget-capped run
	// may finish the level in flight).
	States int
	// MaxDepth is the deepest delivery count reached.
	MaxDepth int
	// Exhausted reports whether the state space was fully explored
	// within MaxStates.
	Exhausted bool
	// Capped reports that exploration stopped because the MaxStates
	// budget was reached, distinguishing budget-capped runs from
	// cancelled ones (both report Exhausted=false).
	Capped bool
	// MissProb, for lossy seen-set modes (bitstate/hash compaction), is
	// a conservative upper bound on the per-lookup probability that a
	// new state was wrongly treated as already seen, evaluated at the
	// store's final occupancy. An OK verdict from a lossy run is
	// probabilistic with this confidence qualifier; exact runs report
	// 0. Violations are unconditional either way — lossy stores can
	// only prune, never fabricate a counterexample.
	MissProb float64
	// Store reports seen-set occupancy and probe statistics. It is
	// diagnostic only and exempt from the worker-count determinism
	// contract: table sizes and probe counts follow the shard layout. At
	// a fixed worker count it repeats exactly.
	Store StoreStats
}

// checker carries the DFS state.
type checker struct {
	agents []*mca.Agent
	net    *netsim.Network
	g      *graph.Graph
	opts   Options
	// visited is the seen-set of fully explored states (exact or lossy
	// per Options.Store); onPath tracks only the current DFS path
	// (bounded by the hard limit, with per-branch deletion) for
	// oscillation detection, and stays exact in every store mode.
	visited seenSet
	onPath  map[[2]uint64]pathMark
	// path is the current delivery sequence; counterexample traces are
	// rebuilt by replaying it from the initial state, so the hot loop
	// never materializes snapshots.
	path    []stepRec
	states0 []mca.AgentState
	net0    *netsim.Network
	keys    keyScratch
	// snapStack, saveStack, and pendStack hold one queue snapshot, one
	// receiver-state save, and one pending-edge list per recursion depth
	// so every branch reuses its depth's storage instead of allocating;
	// edgeBuf is shared across depths (consumed before recursing). Only
	// the delivery's receiver is saved: applyDelivery mutates no other
	// agent.
	snapStack []netsim.QueueSnapshot
	saveStack []mca.AgentState
	pendStack [][]netsim.Edge
	edgeBuf   []netsim.Edge
	verdict   *Verdict
	cancelled bool
	capped    bool
	// replay is a resumed run's recorded path (CheckFrom), walked again
	// without counting before the search continues at its cut; nil once
	// the cut is entered. capture asks a capped run to keep its path in
	// cut. err is a replay's refusal of its path.
	replay  []Step
	capture bool
	cut     []Step
	err     error
}

// pathMark remembers where a state first appeared on the DFS path and
// how many state-changing deliveries had happened by then, so repeats
// can be classified as genuine oscillations (progress made, state
// recurred) versus benign no-op loops.
type pathMark struct {
	step    int
	changes int
}

// visitedMark is the placeholder node stored in the serial checker's
// seen-set (the table maps keys to nodes; the DFS needs only presence).
var visitedMark = &pathNode{}

// Check explores all message interleavings of the MCA protocol over the
// given agents and agent network, and verifies the consensus property.
// Agents must be freshly constructed (pre-bid) and indexed by position.
func Check(agents []*mca.Agent, g *graph.Graph, opts Options) Verdict {
	v, _, _ := CheckFrom(agents, g, opts, nil, false)
	return v
}

// CheckFrom is Check with checkpoint/resume. A non-nil prior — the cut
// of an earlier run of the same check, taken at a smaller MaxStates —
// continues that run instead of starting over: its path is replayed
// from the initial state and the search goes on from its cut, so the
// verdict is the one the same check returns uninterrupted, trace
// included. With capture set, a run that stops on the MaxStates budget
// returns its own cut (nil otherwise). Both need the exact store: a
// lossy store's or DisableVisitedSet's seen-set cannot be written down.
// A prior whose path the check could not have taken is an error
// wrapping ErrCorruptRunState.
func CheckFrom(agents []*mca.Agent, g *graph.Graph, opts Options, prior *DFSState, capture bool) (Verdict, *DFSState, error) {
	if capture || prior != nil {
		switch {
		case opts.Store != StoreExact:
			return Verdict{}, nil, fmt.Errorf("explore: the lossy %s store cannot checkpoint: its seen-set keeps no keys to write down", opts.Store)
		case opts.DisableVisitedSet:
			return Verdict{}, nil, fmt.Errorf("explore: DisableVisitedSet cannot checkpoint: the run keeps no seen-set to write down")
		}
	}
	if prior != nil {
		if err := prior.validate(); err != nil {
			return Verdict{}, nil, err
		}
	}
	if len(agents) == 0 {
		if prior != nil {
			return Verdict{}, nil, corrupt("a path of %d steps over no agents", len(prior.Path))
		}
		return Verdict{OK: true, Exhausted: true}, nil, nil
	}
	opts = opts.withDefaults(g, agents[0].Items())
	net := netsim.New(g)
	if opts.QueueDepth > 0 {
		net.LimitQueueDepth(opts.QueueDepth)
	}
	seen := newSeenSet(opts)
	exact, _ := seen.(*exactSeen)
	if testSeenWrap != nil {
		seen = testSeenWrap(seen)
	}
	c := &checker{
		agents:  agents,
		net:     net,
		g:       g,
		opts:    opts,
		visited: seen,
		onPath:  make(map[[2]uint64]pathMark),
		verdict: &Verdict{},
		capture: capture,
	}
	c.keys.interval = crosscheckInterval
	// Initial transition: all agents bid and broadcast.
	for _, a := range agents {
		if a.BidPhase() {
			c.net.BroadcastAgent(a)
		}
	}
	c.states0 = saveStates(agents)
	c.net0 = c.net.Clone()
	if prior != nil {
		c.verdict.States, c.verdict.MaxDepth = prior.States, prior.MaxDepth
		for _, k := range prior.Visited {
			c.visited.add(k)
		}
		c.replay = prior.Path
	}
	c.dfs(0, 0)
	if c.err != nil {
		return Verdict{}, nil, c.err
	}
	c.verdict.Exhausted = !c.cancelled && !c.capped && c.verdict.States < opts.MaxStates
	c.verdict.Capped = c.capped
	c.verdict.OK = c.verdict.Violation == ViolationNone && c.verdict.Exhausted
	c.verdict.MissProb = c.visited.missProb()
	c.visited.addStats(&c.verdict.Store)
	c.keys.addStats(&c.verdict.Store)
	var next *DFSState
	if c.cut != nil {
		next = &DFSState{States: c.verdict.States, MaxDepth: c.verdict.MaxDepth, Path: c.cut, Visited: exact.sortedKeys()}
	}
	return *c.verdict, next, nil
}

// testSeenWrap, when non-nil, wraps the seen-set Check constructs —
// the statistical tests interpose a shadow exact store to count the
// lossy stores' false positives on real key streams.
var testSeenWrap func(seenSet) seenSet

// dfs returns true when a violation has been found (stops the search).
// depth counts all deliveries on the path; changes counts only the
// deliveries that changed some agent's state, which is what the paper's
// val bound budgets.
func (c *checker) dfs(depth, changes int) bool {
	if c.replay != nil {
		if depth < len(c.replay) {
			return c.replayNode(depth, changes)
		}
		c.replay = nil // the cut: the search goes on from here
	}
	if depth > c.verdict.MaxDepth {
		c.verdict.MaxDepth = depth
	}
	if c.verdict.States >= c.opts.MaxStates {
		c.capped = true
		if c.capture {
			c.cut = make([]Step, len(c.path))
			for i, st := range c.path {
				c.cut[i] = Step{Edge: st.edge, Consume: st.consume}
			}
		}
		return true // budget exhausted; inconclusive
	}
	if c.opts.Cancel != nil && c.verdict.States&255 == 0 && c.opts.Cancel() {
		c.cancelled = true
		return true // cancelled; inconclusive
	}
	key := c.canonKey()
	if first, cyc := c.onPath[key]; cyc {
		if changes > first.changes {
			// The protocol did real work and still returned to an earlier
			// state: a genuine oscillation.
			c.fail(ViolationOscillation, fmt.Sprintf("state repeats (first seen at step %d): oscillation", first.step))
			return true
		}
		// A no-op cycle (e.g. duplicated deliveries of stale messages):
		// no progress, no violation — prune the branch.
		return false
	}
	if !c.opts.DisableVisitedSet && c.visited.has(key) {
		return false
	}
	c.verdict.States++

	kind, label, quiescent := classify(c.agents, c.net, c.opts, depth, changes)
	if kind != ViolationNone {
		c.fail(kind, label)
		return true
	}
	if quiescent {
		c.visited.add(key)
		return false
	}
	return c.expand(key, depth, changes, c.pendingAt(depth), 0, 0)
}

// replayNode re-enters an ancestor of a resumed run's cut: the state
// the recorded path reaches at depth, which the interrupted run had
// counted and was expanding when it stopped. It re-derives what the
// search keeps for the node (key, path mark, pending deliveries),
// refuses a state the search would not have expanded, and continues
// the node's branches at the recorded step.
func (c *checker) replayNode(depth, changes int) bool {
	key := c.canonKey()
	_, onPath := c.onPath[key]
	kind, _, quiescent := classify(c.agents, c.net, c.opts, depth, changes)
	if onPath || c.visited.has(key) || kind != ViolationNone || quiescent {
		c.err = corrupt("path step %d starts from a state the search does not expand", depth)
		return true
	}
	pending := c.pendingAt(depth)
	st := c.replay[depth]
	i := slices.Index(pending, st.Edge)
	if i < 0 || !st.Consume && !c.opts.DuplicateDeliveries {
		c.err = corrupt("path step %d delivers on %d->%d, which is not a pending delivery there", depth, st.Edge.From, st.Edge.To)
		return true
	}
	mode := 0
	if !st.Consume {
		mode = 1
	}
	return c.expand(key, depth, changes, pending, i, mode)
}

// pendingAt lists the current state's pending deliveries into depth's
// own buffer, growing the per-depth stacks to reach depth.
func (c *checker) pendingAt(depth int) []netsim.Edge {
	for depth >= len(c.snapStack) {
		c.snapStack = append(c.snapStack, netsim.QueueSnapshot{})
		c.saveStack = append(c.saveStack, mca.AgentState{})
		c.pendStack = append(c.pendStack, nil)
	}
	c.pendStack[depth] = c.net.PendingInto(c.pendStack[depth][:0])
	return c.pendStack[depth]
}

// expand puts the state with key on the path and explores its branches
// from pending[first] in mode firstMode on, then records the state as
// visited. Mode 0 delivers a message consuming it, mode 1 (fault
// injection, DuplicateDeliveries only) leaves a duplicate in flight.
func (c *checker) expand(key [2]uint64, depth, changes int, pending []netsim.Edge, first, firstMode int) bool {
	c.onPath[key] = pathMark{step: len(c.path), changes: changes}
	nmodes := 1
	if c.opts.DuplicateDeliveries {
		nmodes = 2 // consume, then duplicate
	}
	mode := firstMode
	for _, e := range pending[first:] {
		for ; mode < nmodes; mode++ {
			consume := mode == 0
			// Only the queues a delivery can touch are snapshotted, and
			// only the receiver's agent state is saved — nothing else
			// mutates; the recursion below rolls its own deliveries back,
			// so rolling back this one afterwards restores the state
			// exactly.
			snap := &c.snapStack[depth]
			c.edgeBuf = affectedEdges(c.edgeBuf, c.net, e)
			c.net.Capture(snap, c.edgeBuf...)
			receiver := c.agents[e.To]
			receiver.SaveStateInto(&c.saveStack[depth])
			didChange := applyDelivery(c.agents, c.net, e, consume)
			c.path = append(c.path, stepRec{edge: e, consume: consume})
			nextChanges := changes
			if didChange {
				nextChanges++
			}
			stop := c.dfs(depth+1, nextChanges)
			c.path = c.path[:len(c.path)-1]
			c.net.Rollback(snap)
			receiver.Undo(&c.saveStack[depth])
			if stop {
				return true
			}
		}
		mode = 0
	}
	if !c.opts.DisableVisitedSet {
		c.visited.add(key)
	}
	delete(c.onPath, key)
	return false
}

// affectedEdges appends to buf the edges a delivery on e can modify:
// e itself plus every outgoing edge of the receiver (re-broadcast and
// reply targets).
func affectedEdges(buf []netsim.Edge, net *netsim.Network, e netsim.Edge) []netsim.Edge {
	buf = append(buf[:0], e)
	for _, nb := range net.Neighbors(int(e.To)) {
		buf = append(buf, netsim.Edge{From: e.To, To: mca.AgentID(nb)})
	}
	return buf
}

// applyDelivery delivers the head message of edge e — consuming it, or
// (duplicate fault injection) leaving it in flight — and applies the
// protocol's response rules: a changed receiver re-broadcasts its view,
// and an unchanged receiver that disagrees with the sender replies so
// the disagreement cannot silently persist at quiescence. This is the
// single transition function shared by the serial DFS and the sharded
// parallel frontier. Only agents[e.To] is mutated.
func applyDelivery(agents []*mca.Agent, net *netsim.Network, e netsim.Edge, consume bool) bool {
	var m mca.Message
	if consume {
		m = net.Deliver(e)
	} else {
		// No clone needed: messages are immutable once sent and
		// HandleMessage only reads its argument (the same invariant
		// netsim.Network.Clone relies on to share message values).
		m, _ = net.Peek(e)
	}
	receiver := agents[e.To]
	didChange := receiver.HandleMessage(m)
	if didChange {
		net.BroadcastAgent(receiver)
	} else if !receiver.ViewAgrees(m.View) {
		net.Send(receiver.Snapshot(m.Sender))
	}
	return didChange
}

// classify checks one newly reached state — the agents and network as
// they stand, depth deliveries into its path of which changes were
// effective — against the consensus property. It is the single
// per-state check shared by the serial DFS and the sharded frontier;
// quiescent reports a state with nothing left to deliver, which neither
// explorer expands.
func classify(agents []*mca.Agent, net *netsim.Network, opts Options, depth, changes int) (kind ViolationKind, label string, quiescent bool) {
	if net.Quiescent() {
		// Quiescence: the reply-on-disagreement rule guarantees that any
		// surviving pairwise disagreement would still have a message in
		// flight, so a quiescent state must satisfy the consensus
		// predicate and be conflict-free.
		if !agreementOf(agents) {
			return ViolationDisagreement, "quiescent without agreement", true
		}
		if !conflictFreeOf(agents) {
			return ViolationConflict, "agreement reached but bundles conflict", true
		}
		return ViolationNone, "", true
	}
	if depth >= opts.hardLimit() {
		return ViolationBoundExceeded, fmt.Sprintf("still active after %d deliveries (hard limit)", depth), false
	}
	if changes >= opts.Bound && !agreementOf(agents) {
		// The paper's consensus assertion: after the val message budget,
		// max-consensus must hold.
		return ViolationBoundExceeded, fmt.Sprintf("no consensus after %d effective deliveries (bound)", changes), false
	}
	return ViolationNone, "", false
}

// agreementOf reports whether all agents pairwise agree on winners and
// winning bids.
func agreementOf(agents []*mca.Agent) bool {
	for i := 1; i < len(agents); i++ {
		if !agents[0].AgreesWith(agents[i]) {
			return false
		}
	}
	return true
}

// conflictFreeOf reports whether no item is held by two bundles.
func conflictFreeOf(agents []*mca.Agent) bool {
	for i, a := range agents {
		for _, b := range agents[i+1:] {
			if a.BundleOverlaps(b) {
				return false
			}
		}
	}
	return true
}

func (c *checker) fail(kind ViolationKind, label string) {
	if c.verdict.Violation != ViolationNone {
		return // keep the first counterexample
	}
	c.verdict.Violation = kind
	// The DFS replays the path it is on, which always replays.
	c.verdict.Trace, _ = replayTrace(cloneAgents(c.agents), c.states0, c.net0, c.path, label)
}

// agentSnapshots captures the trace-level view of every agent.
func agentSnapshots(agents []*mca.Agent) []trace.AgentSnapshot {
	out := make([]trace.AgentSnapshot, len(agents))
	for i, a := range agents {
		view := a.View()
		bids := make([]int64, len(view))
		winners := make([]int, len(view))
		for j, bi := range view {
			bids[j] = bi.Bid
			winners[j] = int(bi.Winner)
		}
		bundle := a.Bundle()
		bints := make([]int, len(bundle))
		for k, b := range bundle {
			bints[k] = int(b)
		}
		out[i] = trace.AgentSnapshot{ID: int(a.ID()), Bids: bids, Winner: winners, Bundle: bints}
	}
	return out
}

// canonKey computes the canonical state key: logical times replaced by
// their dense rank — making the visited set a finite quotient of the
// unbounded clock space — and the result hashed to 128 bits (collisions
// are negligible at the state counts explored; see docs/PERFORMANCE.md
// for the collision-behavior contract). The computation lives in
// keyScratch.key, shared with the parallel frontier's per-worker
// incremental hashing.
func (c *checker) canonKey() [2]uint64 {
	return c.keys.key(c.agents, c.net)
}
