package explore

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// The sharded parallel frontier: CheckParallel, CheckParallelFrom and
// the RunState they checkpoint. No product path reaches it — every
// explicit check runs on the serial DFS (Check, CheckFrom), which is
// faster at every worker count measured — and only this package's
// tests and bench/ call it, until the benchmark stops timing it and
// the frontier is deleted.

// CheckParallel is the sharded parallel counterpart of Check: the same
// bounded verification of the MCA consensus property, run as a
// level-ordered breadth-first exploration partitioned across workers.
// The canonical-state space is hash-partitioned: each worker owns the
// shard of states whose key hashes to it, keeps that shard's seen-set
// without locking, and expands only states it owns.
//
// The frontier is a level loop the calling goroutine drives in two
// barrier phases. Expand: every shard sorts and deduplicates its own
// bucket, checks and expands the new states, and appends each successor
// to a plain slice for the shard that owns it. The driver then folds
// the level's results and makes the stop decision (violation, budget,
// cancellation, completion) — exactly once per level, from that level's
// complete results, so the decision point, and with it the set of
// explored states, is worker-count independent. Merge: every shard
// seals the level's states into its seen-set and collects the slices
// addressed to it into its next bucket. One shard runs both phases
// inline on the caller's goroutine; several run each phase on one
// goroutine apiece, joined before the next phase starts.
//
// The verdict is deterministic in the worker count:
//
//   - levels impose a global exploration order, and stop decisions are
//     taken at level granularity from complete level data, so the set
//     of states examined before a stop is worker-count independent;
//   - within a level, each shard sorts its bucket into a fixed order
//     before processing, and violations are merged with a fixed
//     tie-break, so the reported counterexample is stable;
//   - oscillations are detected after the frontier drains, by finding a
//     strongly connected component of the explored state graph that
//     contains a state-changing transition — the graph-level equivalent
//     of the serial checker's "state repeats with progress made" path
//     check — and the witness cycle is chosen deterministically.
//
// Verdicts agree with the serial checker on exhausted state spaces,
// with one deliberate exception: the paper's val-bound assertion is
// path-dependent, and when several same-length paths reach a state the
// serial DFS checks whichever its traversal order happens to keep
// while the sharded frontier always keeps the most-violating (highest
// effective-change) path — so CheckParallel can flag a bound violation
// the serial checker's order-dependent pruning misses, never the
// reverse. Inconclusive runs report Exhausted=false, with
// Verdict.Capped distinguishing budget-capped runs from cancelled
// ones. Options.DisableVisitedSet (the serial checker's memoization
// ablation) is not supported here and is ignored: the hash-partitioned
// seen-set is what shards the state space, so the sharded frontier
// cannot run without it. The MaxStates budget is enforced at level
// granularity — a level in flight completes before the stop, so
// Verdict.States reports the true explored count, which may overshoot
// the cap by up to one frontier width (the price of keeping the
// stopping point worker-count independent). Verdict.MaxDepth is the
// deepest level that contained a new distinct state — the maximum BFS
// distance explored.
func CheckParallel(agents []*mca.Agent, g *graph.Graph, opts Options, workers int) Verdict {
	v, _, _ := CheckParallelFrom(agents, g, opts, workers, nil, false)
	return v
}

// CheckParallelFrom is CheckParallel with checkpoint/resume: a non-nil
// prior run state restores a budget-capped run (seen set, frontier,
// transition log) and continues it at prior.NextLevel instead of
// restarting, and capture asks for a new run state back when this run
// itself stops on the MaxStates budget (nil otherwise). The resumed
// verdict is identical — violation, trace, state count, depth — to the
// same run executed without interruption, at any worker count, because
// the restored cut is exactly the state a fresh run would hold at that
// level boundary. The error is non-nil only for a structurally invalid
// prior; semantic compatibility (same scenario, same bounds) is the
// caller's contract — see engine.Checkpoint.
func CheckParallelFrom(agents []*mca.Agent, g *graph.Graph, opts Options, workers int, prior *RunState, capture bool) (Verdict, *RunState, error) {
	if len(agents) == 0 {
		return Verdict{OK: true, Exhausted: true}, nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts = opts.withDefaults(g, agents[0].Items())
	if opts.Cancel != nil && opts.Cancel() {
		return Verdict{}, nil, nil // cancelled before exploration; inconclusive
	}
	if prior != nil && opts.MaxStates > 0 && prior.States >= opts.MaxStates {
		// The prior run already spent this budget: exploring even one
		// more level would overshoot what the same verification executed
		// uninterrupted at this budget could reach, breaking resume
		// equivalence. Re-cap immediately with the prior verdict; the
		// run state passes through unchanged so a later resume with a
		// raised budget still works.
		v := Verdict{States: prior.States, MaxDepth: prior.MaxDepth, Capped: true}
		var next *RunState
		if capture {
			next = prior
		}
		return v, next, nil
	}

	// Initial transition: all agents bid and broadcast.
	net0 := netsim.New(g)
	if opts.QueueDepth > 0 {
		net0.LimitQueueDepth(opts.QueueDepth)
	}
	for _, a := range agents {
		if a.BidPhase() {
			net0.BroadcastAgent(a)
		}
	}
	states0 := saveStates(agents)

	fr := &frontier{opts: opts, shards: make([]*shardWorker, workers)}
	for i := range fr.shards {
		fr.shards[i] = &shardWorker{
			self:     i,
			replicas: cloneAgents(agents),
			scratch:  net0.Clone(),
			out:      make([][]workItem, workers),
		}
		fr.shards[i].keys.interval = crosscheckInterval
	}

	// Disk spill is best-effort: if the per-run temp directory cannot
	// be created the check simply runs in-core (identical verdict).
	// The directory is removed on every exit path, cancellation
	// included.
	if opts.SpillDir != "" {
		if runDir, err := os.MkdirTemp(opts.SpillDir, "mcaspill-"); err == nil {
			defer os.RemoveAll(runDir)
			for _, s := range fr.shards {
				s.spill = &spillStore{dir: runDir, shard: s.self, threshold: opts.SpillStates}
			}
		}
	}

	// A resumed run starts at the prior run's cut: its next level, its
	// state count for the budget math, and its deepest productive level
	// for the final verdict.
	level, states, maxDepth := 0, 0, 0
	if prior != nil {
		if err := fr.restore(prior); err != nil {
			return Verdict{}, nil, err
		}
		level, states, maxDepth = prior.NextLevel, prior.States, prior.MaxDepth
	} else {
		rootKey := fr.shards[0].keys.key(fr.shards[0].replicas, net0)
		rootNode := fr.shards[0].arena.alloc()
		rootNode.key = rootKey
		owner := fr.shards[shardOf(rootKey, workers)]
		owner.bucket = append(owner.bucket, workItem{
			node:   rootNode,
			buf:    net0.AppendState(encodeStates(agents, nil)),
			routeH: routeSeed,
		})
	}

	stop := fr.run(level, states, maxDepth)
	verdict := fr.assemble(stop, agents, states0, net0)
	var next *RunState
	if capture && verdict.Capped {
		next = fr.captureRunState(stop.level+1, &verdict)
	}
	if fr.err != nil {
		// Exact dedup was compromised mid-run (spill segment unreadable
		// or torn); nothing derived from this frontier can be trusted.
		return Verdict{}, nil, fr.err
	}
	return verdict, next, nil
}

// routeSeed is the FNV-1a offset basis used for route fingerprints.
const routeSeed = 14695981039346656037

// pathNode is one node of the breadth-first exploration tree: the state
// reached, the delivery that reached it, and its parent. Paths share
// prefixes, so the retained tree costs O(states); nodes live in
// per-shard arenas (stable pointers, no per-state allocation), and a
// counterexample is reconstructed by replaying the root-to-node
// delivery sequence.
type pathNode struct {
	parent  *pathNode
	edge    netsim.Edge
	consume bool
	depth   int
	changes int
	key     [2]uint64
}

// workItem is a frontier entry: a reached state — agent states AND
// in-flight messages packed into one pointer-free byte buffer — plus a
// deterministic route fingerprint used only for tie-breaking. Keeping
// the frontier free of live Networks matters twice over: successors
// are produced by appending to a recycled buffer instead of cloning a
// network, and the garbage collector never scans the frontier (the
// buffers hold no pointers). Buffers are recycled through the owning
// shard's pool once the item has been expanded or deduplicated.
type workItem struct {
	node   *pathNode
	buf    []byte
	routeH uint64
}

// stepRec is one delivery of a replayable counterexample path.
type stepRec struct {
	edge    netsim.Edge
	consume bool
}

// edgeRec is one explored transition of the state graph, kept for the
// end-of-run oscillation analysis.
type edgeRec struct {
	from, to  [2]uint64
	step      stepRec
	didChange bool
}

type violationRec struct {
	kind   ViolationKind
	label  string
	node   *pathNode
	routeH uint64
}

// levelStat is the driver's fold of one level: the shards' results
// summed after the expand phase, the running totals carried from level
// to level, and — on the level the run stops at — why it stopped.
type levelStat struct {
	level      int
	newStates  int
	cumStates  int // total distinct states through this level
	maxDepth   int // deepest level so far that held a new distinct state
	routed     int // successors routed into the next level's buckets
	violations []violationRec
	chosen     *violationRec
	cancelled  bool
	capped     bool
	completed  bool
}

// frontier is the state of one CheckParallel run, owned by the driver
// (the goroutine that called CheckParallelFrom); shards see only each
// other and the options, and only inside a phase.
type frontier struct {
	opts   Options
	shards []*shardWorker
	// err is the first spill-segment read failure of the run, folded
	// from the shards after each expand phase, or a resumed witness that
	// does not replay. Segment loss breaks exact dedup, so the run must
	// end in a hard error — never a wrong verdict, never a panic.
	err error
}

// fail records the first failure (a nil err is none); decide turns it
// into a stop and CheckParallelFrom surfaces it as the run's error.
func (fr *frontier) fail(err error) {
	if fr.err == nil {
		fr.err = err
	}
}

// each runs one phase: f on every shard, returning once all are done.
// One shard runs inline; with more, the go statements and the Wait are
// the only synchronisation the frontier has — everything a phase writes
// happens-before everything the next phase reads. A shard that panics
// does so on a goroutine nobody can recover from, which would end the
// process: its panic is kept, the join finishes, and the panic is
// raised again here, on the goroutine that called the explorer.
func (fr *frontier) each(f func(w *shardWorker)) {
	if len(fr.shards) == 1 {
		f(fr.shards[0])
		return
	}
	var wg sync.WaitGroup
	panics := make([]any, len(fr.shards))
	for i, s := range fr.shards {
		wg.Add(1)
		go func(w *shardWorker) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			f(w)
		}(s)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// run is the level loop: expand, fold, decide, merge, starting at level
// with the given running totals, until a level stops the run; it
// returns that level. The merge phase runs on the stop level too, so
// whatever stopped the run, every processed state is sealed and the
// shards' buckets hold the complete routed frontier — the cut
// captureRunState serializes.
func (fr *frontier) run(level, states, maxDepth int) levelStat {
	for ; ; level++ {
		fr.each(func(w *shardWorker) { w.expand(fr.shards, fr.opts) })
		ls := levelStat{level: level, cumStates: states, maxDepth: maxDepth}
		for _, s := range fr.shards {
			ls.newStates += s.newStates
			ls.violations = append(ls.violations, s.viols...)
			for _, out := range s.out {
				ls.routed += len(out)
			}
			fr.fail(s.err)
		}
		ls.cumStates += ls.newStates
		// MaxDepth counts the deepest level that processed a new distinct
		// state. Routed-item counts would be one alternative, but they
		// vary with the worker count (a shard prunes successors against
		// the current level's states only when it owns them), while the
		// level at which each distinct state is first processed is its
		// BFS distance — a pure function of the scenario.
		if ls.newStates > 0 {
			ls.maxDepth = level
		}
		stop := fr.decide(&ls)
		fr.each(func(w *shardWorker) { w.merge(fr.shards) })
		if stop {
			return ls
		}
		states, maxDepth = ls.cumStates, ls.maxDepth
	}
}

// restore rebuilds the shards from a prior run state: tree nodes are
// resurrected into one backing slice (kept alive by the sealed tables'
// pointers into it), the seen set is re-routed to its owning shards'
// sealed tables by key — so restoration works at any worker count —
// the frontier is re-bucketed for the start level, and the transition
// log lands in shard 0 (the oscillation analysis concatenates all logs
// anyway). The prior is checked against the scenario first: expansion
// trusts every item to be a state of these agents.
func (fr *frontier) restore(prior *RunState) error {
	if err := prior.validate(); err != nil {
		return err
	}
	if err := prior.check(fr.shards[0].replicas, fr.shards[0].scratch); err != nil {
		return err
	}
	workers := len(fr.shards)
	nodes := make([]pathNode, len(prior.Nodes))
	for i := range prior.Nodes {
		rn := &prior.Nodes[i]
		n := &nodes[i]
		n.key = rn.Key
		if rn.Parent >= 0 {
			n.parent = &nodes[rn.Parent]
		}
		n.edge = netsim.Edge{From: mca.AgentID(rn.From), To: mca.AgentID(rn.To)}
		n.consume = rn.Consume
		n.depth = int(rn.Depth)
		n.changes = int(rn.Changes)
	}
	for i := 0; i < prior.SeenCount; i++ {
		n := &nodes[i]
		fr.shards[shardOf(n.key, workers)].sealed.insert(n.key, n)
	}
	for i := range prior.Frontier {
		it := &prior.Frontier[i]
		n := &nodes[it.Node]
		w := fr.shards[shardOf(n.key, workers)]
		w.bucket = append(w.bucket, workItem{
			node:   n,
			buf:    append([]byte(nil), it.State...),
			routeH: it.RouteH,
		})
	}
	for i := range prior.Edges {
		e := &prior.Edges[i]
		fr.shards[0].edges.append(edgeRec{
			from: e.From, to: e.To,
			step: stepRec{
				edge:    netsim.Edge{From: mca.AgentID(e.EdgeFrom), To: mca.AgentID(e.EdgeTo)},
				consume: e.Consume,
			},
			didChange: e.DidChange,
		})
	}
	return nil
}

// captureRunState snapshots a budget-capped run at its level-boundary
// cut, after the level loop has returned. The cut is exact: the stop
// level was merged like any other, so the shards' buckets hold the
// complete routed frontier for nextLevel and every processed state has
// been sealed. The seen set is serialized sorted by canonical key and
// the frontier and edge log in fixed orders, so at a fixed worker count
// the snapshot is a pure function of the run's inputs. Across worker
// counts the frontier differs in the duplicates producer-side pruning
// let through; a resumed run discards them by arrival dedup exactly as
// the uninterrupted run would have.
func (fr *frontier) captureRunState(nextLevel int, v *Verdict) *RunState {
	rs := &RunState{NextLevel: nextLevel, States: v.States, MaxDepth: v.MaxDepth}

	type seenEnt struct {
		key  [2]uint64
		node *pathNode
	}
	var seen []seenEnt
	for _, s := range fr.shards {
		if err := s.spill.forEach(func(k [2]uint64, n *pathNode) { seen = append(seen, seenEnt{k, n}) }); err != nil {
			// An unreadable segment means the seen set cannot be
			// reconstructed; the checkpoint would resume wrong, so none
			// is produced and the run reports the failure instead.
			fr.fail(err)
			return nil
		}
		s.sealed.forEach(func(k [2]uint64, n *pathNode) { seen = append(seen, seenEnt{k, n}) })
	}
	sort.Slice(seen, func(i, j int) bool { return keyLess(seen[i].key, seen[j].key) })

	idx := make(map[*pathNode]int32, len(seen))
	rs.Nodes = make([]RunNode, 0, len(seen))
	for _, e := range seen {
		idx[e.node] = int32(len(rs.Nodes))
		rs.Nodes = append(rs.Nodes, runNodeOf(e.node, -1))
	}
	// Parent links resolve entirely within the seen set: a seen node's
	// parent was processed one level earlier, and a frontier node's
	// parent was processed at the stop level.
	for i, e := range seen {
		if e.node.parent != nil {
			rs.Nodes[i].Parent = idx[e.node.parent]
		}
	}
	rs.SeenCount = len(rs.Nodes)

	var items []workItem
	for _, s := range fr.shards {
		items = append(items, s.bucket...)
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := &items[i], &items[j]
		if a.node.key != b.node.key {
			return keyLess(a.node.key, b.node.key)
		}
		if a.node.changes != b.node.changes {
			return a.node.changes > b.node.changes
		}
		if a.routeH != b.routeH {
			return a.routeH < b.routeH
		}
		return string(a.buf) < string(b.buf)
	})
	rs.Frontier = make([]RunItem, 0, len(items))
	for i := range items {
		it := &items[i]
		parent := int32(-1)
		if it.node.parent != nil {
			parent = idx[it.node.parent]
		}
		node := int32(len(rs.Nodes))
		rs.Nodes = append(rs.Nodes, runNodeOf(it.node, parent))
		rs.Frontier = append(rs.Frontier, RunItem{
			Node:   node,
			RouteH: it.routeH,
			State:  append([]byte(nil), it.buf...),
		})
	}

	total := 0
	for _, s := range fr.shards {
		total += s.edges.total
	}
	rs.Edges = make([]RunEdge, 0, total)
	for _, s := range fr.shards {
		for _, b := range s.edges.blocks {
			for i := range b {
				e := &b[i]
				rs.Edges = append(rs.Edges, RunEdge{
					From: e.from, To: e.to,
					EdgeFrom: int32(e.step.edge.From), EdgeTo: int32(e.step.edge.To),
					Consume: e.step.consume, DidChange: e.didChange,
				})
			}
		}
	}
	sort.Slice(rs.Edges, func(i, j int) bool {
		a, b := &rs.Edges[i], &rs.Edges[j]
		if a.From != b.From {
			return keyLess(a.From, b.From)
		}
		if a.To != b.To {
			return keyLess(a.To, b.To)
		}
		if a.EdgeFrom != b.EdgeFrom {
			return a.EdgeFrom < b.EdgeFrom
		}
		if a.EdgeTo != b.EdgeTo {
			return a.EdgeTo < b.EdgeTo
		}
		return a.Consume && !b.Consume
	})
	return rs
}

// runNodeOf converts a tree node to its serialized form.
func runNodeOf(n *pathNode, parent int32) RunNode {
	return RunNode{
		Key:     n.key,
		Parent:  parent,
		From:    int32(n.edge.From),
		To:      int32(n.edge.To),
		Consume: n.consume,
		Depth:   int32(n.depth),
		Changes: int32(n.changes),
	}
}

// decide makes the stop/continue decision for a fully folded level and
// reports whether the run stops here. All of the level's processing —
// including every successor routed for the next level — is complete, so
// the decision is a pure function of worker-count-independent data.
// Precedence: violations first, then cancellation, then the state
// budget, then frontier exhaustion.
func (fr *frontier) decide(ls *levelStat) bool {
	switch {
	case fr.err != nil:
		// A lost spill segment invalidates the level's dedup, and with
		// it every count and violation derived this level; stop as a
		// cancelled run — the verdict is discarded for the recorded
		// error either way.
		ls.cancelled = true
	case len(ls.violations) > 0:
		// All violations in a level sit at the same depth; break ties
		// deterministically so the counterexample is stable across
		// worker counts and runs.
		sort.Slice(ls.violations, func(i, j int) bool {
			a, b := ls.violations[i], ls.violations[j]
			if a.kind != b.kind {
				return a.kind < b.kind
			}
			if a.node.key != b.node.key {
				return keyLess(a.node.key, b.node.key)
			}
			return a.routeH < b.routeH
		})
		ls.chosen = &ls.violations[0]
	case fr.opts.Cancel != nil && fr.opts.Cancel():
		ls.cancelled = true
	case ls.cumStates >= fr.opts.MaxStates:
		ls.capped = true
	case ls.routed == 0:
		ls.completed = true
	default:
		return false
	}
	return true
}

// assemble builds the final Verdict from the level the run stopped at.
func (fr *frontier) assemble(stop levelStat, agents []*mca.Agent, states0 []mca.AgentState, net0 *netsim.Network) Verdict {
	verdict := &Verdict{States: stop.cumStates, MaxDepth: stop.maxDepth}
	verdict.Exhausted = !stop.cancelled && verdict.States < fr.opts.MaxStates
	verdict.Capped = stop.capped
	for _, s := range fr.shards {
		s.sealed.addStats(&verdict.Store)
		s.fresh.addStats(&verdict.Store)
		s.spill.addToStats(&verdict.Store)
		s.keys.addStats(&verdict.Store)
	}
	var err error
	if stop.chosen != nil {
		verdict.Violation = stop.chosen.kind
		verdict.Trace, err = replayTrace(cloneAgents(agents), states0, net0, treeSteps(stop.chosen.node), stop.chosen.label)
	} else if stop.completed && verdict.Exhausted {
		total := 0
		for _, s := range fr.shards {
			total += s.edges.total
		}
		allEdges := make([]edgeRec, 0, total)
		for _, s := range fr.shards {
			for _, b := range s.edges.blocks {
				allEdges = append(allEdges, b...)
			}
		}
		var nodes map[[2]uint64]*pathNode
		// The oscillation pass needs the complete seen set; with a segment
		// unreadable the verdict is voided by the recorded error, so the
		// analysis is skipped.
		if nodes, err = mergeNodes(fr.shards); err == nil {
			if osc := findOscillation(allEdges, nodes); osc != nil {
				verdict.Violation = ViolationOscillation
				verdict.Trace, err = replayTrace(cloneAgents(agents), states0, net0, osc.steps, osc.label)
			}
		}
	}
	fr.fail(err) // a lost segment, or a resumed witness that does not replay
	verdict.OK = verdict.Violation == ViolationNone && verdict.Exhausted
	return *verdict
}

// shardWorker owns one hash shard of the canonical-state space. The
// seen-set is split in two so peers can read it without locks:
// `sealed` holds states processed in *earlier* levels and is written
// only in the merge phase, so during the expand phase any worker may
// consult any shard's sealed set while generating successors (pruning
// most already-known states at the producer, before allocating a
// frontier item); `fresh` collects the states processed in the current
// level and is touched only by the owning worker. Everything else
// (replicas, scratch buffers, arenas, pools) is worker-private, so
// neither phase needs a lock: in expand a shard appends to its own
// `out` slices, in merge it drains the slot addressed to it in every
// shard's `out`.
type shardWorker struct {
	self     int // this worker's shard index
	replicas []*mca.Agent
	keys     keyScratch
	// spill is the shard's disk residence for sealed states; nil unless
	// Options.SpillDir is set.
	spill   *spillStore
	snap    netsim.QueueSnapshot
	edgeBuf []netsim.Edge
	pendBuf []netsim.Edge
	sealed  stateTable
	fresh   stateTable
	arena   nodeArena
	// scratch is the shard's single live network: every frontier item's
	// queue state is decoded into it for expansion and re-encoded for
	// the item's successors. saveSlot holds the delivery receiver's
	// pre-transition state — only the receiver mutates, so restoring it
	// (instead of re-decoding every agent from the item buffer) leaves
	// the other replicas' content digests in place and hands the
	// receiver's back.
	scratch  *netsim.Network
	saveSlot mca.AgentState
	// bucket holds the shard's frontier items for the level about to be
	// expanded; out[d] the successors this shard produced for shard d's
	// next bucket. Both keep their capacity from level to level, so
	// steady-state expansion allocates only when the frontier grows past
	// its high-water mark.
	bucket []workItem
	out    [][]workItem
	// newStates, viols and err are the shard's results of the last expand
	// phase, read by the driver once the phase has joined.
	newStates int
	viols     []violationRec
	err       error
	// bufPool recycles the state buffers of consumed frontier items.
	bufPool [][]byte
	// edges accumulates every explored transition for the end-of-run
	// oscillation analysis, in fixed-size blocks so the log never pays
	// append-doubling copy churn. This is the memory cost of detecting
	// cycles deterministically in a BFS (the serial DFS sees them on
	// its path instead): O(states × branching) compact pointer-free
	// records, only consulted when the frontier drains without a
	// violation.
	edges edgeLog
}

// edgeLog is a chunked append-only log of edgeRecs.
type edgeLog struct {
	blocks [][]edgeRec
	total  int
}

const edgeLogBlock = 1 << 15

func (l *edgeLog) append(e edgeRec) {
	if len(l.blocks) == 0 || len(l.blocks[len(l.blocks)-1]) == edgeLogBlock {
		l.blocks = append(l.blocks, make([]edgeRec, 0, edgeLogBlock))
	}
	b := &l.blocks[len(l.blocks)-1]
	*b = append(*b, e)
	l.total++
}

// merge is a shard's half of the barrier between two levels: seal the
// level's states into the sealed set (spilling it if due), then collect
// the successors every shard addressed to this one into the next
// bucket. No peer reads a sealed table during this phase, and each
// shard writes only its own slot of its peers' out slices, so the
// tables and slices are plain memory.
func (w *shardWorker) merge(shards []*shardWorker) {
	w.fresh.forEach(func(k [2]uint64, n *pathNode) {
		w.sealed.insert(k, n)
	})
	w.fresh.clear()
	w.spill.maybeSpill(&w.sealed)
	w.bucket = w.bucket[:0]
	for _, s := range shards {
		w.bucket = append(w.bucket, s.out[w.self]...)
		s.out[w.self] = s.out[w.self][:0]
	}
}

// getBuf pops recycled storage for a successor item's state buffer.
func (w *shardWorker) getBuf() []byte {
	if n := len(w.bufPool); n > 0 {
		b := w.bufPool[n-1]
		w.bufPool = w.bufPool[:n-1]
		return b[:0]
	}
	return nil
}

// recycle returns a consumed frontier item's buffer to the pool.
func (w *shardWorker) recycle(it *workItem) {
	if it.buf != nil {
		w.bufPool = append(w.bufPool, it.buf)
		it.buf = nil
	}
}

// expand runs one shard's slice of a BFS level: deduplicate its bucket
// against the shard's seen-set, check each new state for violations,
// expand its successors, and append them to the out slice of the shard
// that owns them. Other shards' sealed sets are consulted to prune
// successors already processed in earlier levels before allocating a
// frontier item for them; nobody writes a sealed table during this
// phase, so those reads need no synchronisation.
func (w *shardWorker) expand(shards []*shardWorker, opts Options) {
	workers := len(shards)
	items := w.bucket
	w.newStates, w.viols = 0, nil
	// Multiple paths can reach the same state within one level; process
	// them in a fixed order so the surviving representative — and with
	// it the recorded changes count and tree path — is deterministic.
	// Higher changes first: the most-violating path represents the state.
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.node.key != b.node.key {
			return keyLess(a.node.key, b.node.key)
		}
		if a.node.changes != b.node.changes {
			return a.node.changes > b.node.changes
		}
		return a.routeH < b.routeH
	})
	nmodes := 1
	if opts.DuplicateDeliveries {
		nmodes = 2 // consume, then duplicate
	}
	// Arrival dedup against spilled entries is a sequential merge scan:
	// the items were just sorted key-ascending and the segment is key
	// sorted, so one pass of the cursor covers the whole level. Losing
	// the segment (open or read failure) breaks exact dedup, so it is
	// recorded on the shard and ends the run in a hard error; the
	// remainder of the level runs on but its output is discarded. (w.err
	// is nil on entry: a failure stops the run at this level's decide.)
	spillCur, err := w.spill.openCursor()
	w.err = err
	if spillCur != nil {
		defer spillCur.close()
	}
	for i := range items {
		it := &items[i]
		if w.sealed.get(it.node.key) != nil || w.fresh.get(it.node.key) != nil ||
			(spillCur != nil && spillCur.seek(it.node.key)) {
			w.recycle(it)
			continue
		}
		if spillCur != nil && spillCur.err != nil {
			w.err = spillCur.err
			spillCur.close()
			spillCur = nil
		}
		w.fresh.insert(it.node.key, it.node)
		w.newStates++

		w.scratch.DecodeState(w.restoreAgents(it.buf))
		kind, label, quiescent := classify(w.replicas, w.scratch, opts, it.node.depth, it.node.changes)
		if kind != ViolationNone {
			w.viols = append(w.viols, violationRec{kind: kind, label: label, node: it.node, routeH: it.routeH})
		}
		if kind != ViolationNone || quiescent {
			w.recycle(it)
			continue
		}

		w.pendBuf = w.scratch.PendingInto(w.pendBuf[:0])
		for _, e := range w.pendBuf {
			for mode := 0; mode < nmodes; mode++ {
				consume := mode == 0
				// Try the delivery on the scratch network in place and
				// roll it back afterwards; only surviving successors pay
				// for an encode into a pooled buffer.
				w.edgeBuf = affectedEdges(w.edgeBuf, w.scratch, e)
				w.scratch.Capture(&w.snap, w.edgeBuf...)
				receiver := w.replicas[e.To]
				receiver.SaveStateInto(&w.saveSlot)
				didChange := applyDelivery(w.replicas, w.scratch, e, consume)
				key := w.keys.key(w.replicas, w.scratch)
				w.edges.append(edgeRec{
					from: it.node.key, to: key,
					step: stepRec{edge: e, consume: consume}, didChange: didChange,
				})
				d := shardOf(key, workers)
				// Producer-side pruning: a successor its owner already
				// processed (in an earlier level, or — for self-owned
				// states — this one) would be discarded on arrival;
				// skip building the frontier item. The edge above is
				// still recorded for the oscillation analysis.
				dup := shards[d].sealed.peek(key) != nil
				if !dup && d == w.self {
					dup = w.fresh.peek(key) != nil
				}
				if !dup {
					changes := it.node.changes
					if didChange {
						changes++
					}
					node := w.arena.alloc()
					*node = pathNode{
						parent: it.node, edge: e, consume: consume,
						depth: it.node.depth + 1, changes: changes, key: key,
					}
					w.out[d] = append(w.out[d], workItem{
						node:   node,
						buf:    w.scratch.AppendState(encodeStates(w.replicas, w.getBuf())),
						routeH: routeHash(it.routeH, e, consume),
					})
				}
				w.scratch.Rollback(&w.snap)
				receiver.Undo(&w.saveSlot)
			}
		}
		w.recycle(it)
	}
}

func shardOf(key [2]uint64, workers int) int {
	return int(key[0] % uint64(workers))
}

func keyLess(a, b [2]uint64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func saveStates(agents []*mca.Agent) []mca.AgentState {
	out := make([]mca.AgentState, len(agents))
	for i, a := range agents {
		out[i] = a.SaveState()
	}
	return out
}

func cloneAgents(agents []*mca.Agent) []*mca.Agent {
	out := make([]*mca.Agent, len(agents))
	for i, a := range agents {
		out[i] = a.Clone()
	}
	return out
}

// encodeStates packs every agent's mutable state into one buffer.
func encodeStates(agents []*mca.Agent, buf []byte) []byte {
	for _, a := range agents {
		buf = a.AppendState(buf)
	}
	return buf
}

// restoreAgents decodes the agent-state prefix of a frontier buffer
// into the shard's replicas, returning the network-state remainder.
func (w *shardWorker) restoreAgents(buf []byte) []byte {
	for _, a := range w.replicas {
		buf = a.DecodeState(buf)
	}
	return buf
}

// routeHash extends a path fingerprint by one delivery (FNV-1a).
func routeHash(h uint64, e netsim.Edge, consume bool) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(e.From)) * prime
	h = (h ^ uint64(e.To)) * prime
	if consume {
		h = (h ^ 1) * prime
	} else {
		h = (h ^ 2) * prime
	}
	return h
}

// treeSteps reconstructs the root-to-node delivery sequence.
func treeSteps(n *pathNode) []stepRec {
	var steps []stepRec
	for ; n != nil && n.parent != nil; n = n.parent {
		steps = append(steps, stepRec{edge: n.edge, consume: n.consume})
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return steps
}

// mergeNodes indexes the complete seen set by key. The stop level was
// merged like any other, so every state sits in a sealed table or its
// spill segment and the fresh tables are empty.
func mergeNodes(shards []*shardWorker) (map[[2]uint64]*pathNode, error) {
	out := make(map[[2]uint64]*pathNode)
	for _, s := range shards {
		if err := s.spill.forEach(func(k [2]uint64, n *pathNode) { out[k] = n }); err != nil {
			return nil, err
		}
		s.sealed.forEach(func(k [2]uint64, n *pathNode) { out[k] = n })
	}
	return out, nil
}

// replayTrace re-executes a delivery sequence from the initial
// (post-bid) state, recording the step labels and agent snapshots of a
// counterexample trace. Both explorers build their traces this way, so
// the hot exploration loops never materialize snapshots. replicas are
// scratch agents (mutated freely); states0/net0 are the initial state.
// A step that finds its queue empty comes from a corrupt resumed tree.
func replayTrace(replicas []*mca.Agent, states0 []mca.AgentState, net0 *netsim.Network, steps []stepRec, label string) (*trace.Recorder, error) {
	for i, a := range replicas {
		a.RestoreState(states0[i])
	}
	net := net0.Clone()
	rec := trace.NewRecorder()
	rec.Record(trace.Step{Label: "initial bids", Agents: agentSnapshots(replicas)})
	for _, st := range steps {
		if net.QueueLen(st.edge) == 0 {
			return nil, corrupt("witness delivery %d->%d finds no message", st.edge.From, st.edge.To)
		}
		applyDelivery(replicas, net, st.edge, st.consume)
		name := "deliver"
		if !st.consume {
			name = "duplicate-deliver"
		}
		rec.Record(trace.Step{
			Label:  fmt.Sprintf("%s %d->%d", name, st.edge.From, st.edge.To),
			Agents: agentSnapshots(replicas),
		})
	}
	rec.Record(trace.Step{Label: "VIOLATION: " + label, Agents: agentSnapshots(replicas)})
	return rec, nil
}

// oscillation is a deterministic witness for a progress cycle.
type oscillation struct {
	steps []stepRec
	label string
}

// findOscillation searches the explored state graph for a cycle that
// contains at least one state-changing transition — the graph form of
// the serial checker's "same canonical state recurs after effective
// progress" rule. Such a cycle exists iff some strongly connected
// component contains a didChange edge. The witness is selected
// deterministically: the candidate edge minimizing (depth of its
// source, source key, target key), completed into a cycle by a
// shortest path back through the component over sorted adjacency.
//
// The analysis runs once per completed check over every recorded
// transition, so it resolves edge endpoints to dense node ids up
// front and sorts an index permutation — the graph passes then touch
// only flat int arrays.
func findOscillation(edges []edgeRec, nodes map[[2]uint64]*pathNode) *oscillation {
	if len(edges) == 0 {
		return nil
	}
	// Deterministic node indexing: sorted canonical keys.
	keys := make([][2]uint64, 0, len(nodes))
	for k := range nodes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	id := make(map[[2]uint64]int, len(keys))
	for i, k := range keys {
		id[k] = i
	}

	// Resolve endpoints once; -1 marks an endpoint outside the explored
	// set (possible only on budget-truncated runs).
	eu := make([]int32, len(edges))
	ev := make([]int32, len(edges))
	for i := range edges {
		u, okU := id[edges[i].from]
		v, okV := id[edges[i].to]
		if !okU || !okV {
			eu[i], ev[i] = -1, -1
			continue
		}
		eu[i], ev[i] = int32(u), int32(v)
	}

	// Deterministic adjacency: a sorted index permutation (sorting
	// 4-byte indices, not 56-byte records) ordered by the edges'
	// canonical order.
	perm := make([]int32, len(edges))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(pi, pj int) bool {
		a, b := &edges[perm[pi]], &edges[perm[pj]]
		if a.from != b.from {
			return keyLess(a.from, b.from)
		}
		if a.to != b.to {
			return keyLess(a.to, b.to)
		}
		if a.step.edge != b.step.edge {
			if a.step.edge.From != b.step.edge.From {
				return a.step.edge.From < b.step.edge.From
			}
			return a.step.edge.To < b.step.edge.To
		}
		return a.step.consume && !b.step.consume
	})
	adj := make([][]int32, len(keys)) // node -> edge indices, sorted order
	for _, ei := range perm {
		if eu[ei] >= 0 {
			adj[eu[ei]] = append(adj[eu[ei]], ei)
		}
	}

	comp := sccKosaraju(len(keys), eu, ev, adj)

	var cand *edgeRec
	for i := range edges {
		e := &edges[i]
		if !e.didChange || eu[i] < 0 || comp[eu[i]] != comp[ev[i]] {
			continue
		}
		if cand == nil || oscCandLess(e, cand, nodes) {
			cand = e
		}
	}
	if cand == nil {
		return nil
	}

	// Complete the cycle: shortest path target -> source inside the
	// component (empty for a self-loop).
	u, v := id[cand.from], id[cand.to]
	cyc := cyclePath(v, u, comp, adj, edges, ev)
	steps := append(treeSteps(nodes[cand.from]), cand.step)
	steps = append(steps, cyc...)
	return &oscillation{
		steps: steps,
		label: fmt.Sprintf("state repeats (first reached after %d deliveries): oscillation", nodes[cand.from].depth),
	}
}

func oscCandLess(a, b *edgeRec, nodes map[[2]uint64]*pathNode) bool {
	da, db := nodes[a.from].depth, nodes[b.from].depth
	if da != db {
		return da < db
	}
	if a.from != b.from {
		return keyLess(a.from, b.from)
	}
	if a.to != b.to {
		return keyLess(a.to, b.to)
	}
	return a.step.consume && !b.step.consume
}

// cyclePath finds a shortest delivery path from node v back to node u
// staying inside their strongly connected component. Adjacency is
// pre-sorted, so the BFS — and with it the witness cycle — is
// deterministic. Returns nil when v == u (self-loop cycle).
func cyclePath(v, u int, comp []int32, adj [][]int32, edges []edgeRec, ev []int32) []stepRec {
	if v == u {
		return nil
	}
	type hop struct {
		prev    int
		edgeIdx int32
	}
	from := map[int]hop{v: {prev: -1, edgeIdx: -1}}
	queue := []int{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, ei := range adj[x] {
			y := int(ev[ei])
			if comp[y] != comp[u] {
				continue
			}
			if _, seen := from[y]; seen {
				continue
			}
			from[y] = hop{prev: x, edgeIdx: ei}
			if y == u {
				var steps []stepRec
				for n := u; n != v; n = from[n].prev {
					steps = append(steps, edges[from[n].edgeIdx].step)
				}
				for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
					steps[i], steps[j] = steps[j], steps[i]
				}
				return steps
			}
			queue = append(queue, y)
		}
	}
	// Unreachable: u and v are in the same SCC by construction.
	return nil
}

// sccKosaraju labels each node with its strongly-connected-component id
// (iterative two-pass Kosaraju over pre-resolved endpoint arrays).
func sccKosaraju(n int, eu, ev []int32, adj [][]int32) []int32 {
	radj := make([][]int32, n)
	for i := range eu {
		if eu[i] >= 0 {
			radj[ev[i]] = append(radj[ev[i]], eu[i])
		}
	}
	// Pass 1: finish order on the forward graph.
	order := make([]int32, 0, n)
	visited := make([]bool, n)
	type frame struct {
		node int32
		next int
	}
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		stack := []frame{{node: int32(s)}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				y := ev[adj[f.node][f.next]]
				f.next++
				if !visited[y] {
					visited[y] = true
					stack = append(stack, frame{node: y})
				}
				continue
			}
			order = append(order, f.node)
			stack = stack[:len(stack)-1]
		}
	}
	// Pass 2: reverse graph in reverse finish order.
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	nc := int32(0)
	for i := len(order) - 1; i >= 0; i-- {
		s := order[i]
		if comp[s] != -1 {
			continue
		}
		comp[s] = nc
		stack := []int32{s}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range radj[x] {
				if comp[y] == -1 {
					comp[y] = nc
					stack = append(stack, y)
				}
			}
		}
		nc++
	}
	return comp
}
