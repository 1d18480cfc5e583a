package explore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/mca"
	"repro/internal/netsim"
)

// ErrCorruptRunState tags every structural failure DecodeRunState can
// report — bad magic, truncation, out-of-range indices, broken tree
// invariants. Callers holding untrusted bytes (checkpoint files read
// back from disk) match it with errors.Is to distinguish "this
// document is damaged, re-verify from scratch" from operational
// errors.
var ErrCorruptRunState = errors.New("corrupt run state")

// RunState is a serializable snapshot of a budget-capped CheckParallel
// run: the exploration tree over every state processed so far, the
// routed-but-unprocessed frontier for the next level (each item's
// agent+network state packed in the netsim/mca state codec's
// pointer-free byte form, exactly as it travels between shards), and
// the transition log the end-of-run oscillation analysis needs. A
// resumed run replays none of the explored prefix: shards are
// repopulated from the tree, the frontier is re-routed by key, and
// exploration continues at NextLevel — producing a verdict identical
// to the same run executed without interruption, at any worker count.
//
// Only the parallel frontier is checkpointable: its level-granular
// stop decision leaves a well-defined cut (complete levels + routed
// frontier), while the serial DFS stops mid-path with unbounded
// recursion state.
type RunState struct {
	// NextLevel is the BFS level the resumed run starts at (>= 1).
	NextLevel int
	// States is the number of distinct states explored through the
	// last completed level.
	States int
	// MaxDepth is the deepest level that contained a new distinct
	// state when the run stopped.
	MaxDepth int
	// Nodes is the exploration tree: Nodes[:SeenCount] are the seen
	// set (states processed in completed levels, sorted by canonical
	// key); the remainder are frontier nodes. Parent links are indices
	// into this slice.
	Nodes []RunNode
	// SeenCount splits Nodes into seen set and frontier-only nodes.
	SeenCount int
	// Frontier holds the routed items for NextLevel.
	Frontier []RunItem
	// Edges is the explored-transition log (for oscillation analysis
	// on runs that complete after resuming).
	Edges []RunEdge
}

// RunNode is one exploration-tree node of a RunState.
type RunNode struct {
	// Key is the node's 128-bit canonical state key.
	Key [2]uint64
	// Parent indexes the parent node in RunState.Nodes; -1 for the
	// root.
	Parent int32
	// From and To are the delivery edge that reached this state
	// (meaningless for the root).
	From, To int32
	// Consume reports whether the delivery consumed the message.
	Consume bool
	// Depth is the node's BFS level.
	Depth int32
	// Changes counts effective (state-changing) deliveries on the
	// node's path.
	Changes int32
}

// RunItem is one routed frontier entry of a RunState.
type RunItem struct {
	// Node indexes the item's tree node in RunState.Nodes.
	Node int32
	// RouteH is the item's deterministic route fingerprint.
	RouteH uint64
	// State is the packed agent+network state (the same pointer-free
	// byte encoding frontier items carry between shards).
	State []byte
}

// RunEdge is one explored transition of a RunState's edge log.
type RunEdge struct {
	// From and To are the canonical keys of the transition's endpoint
	// states.
	From, To [2]uint64
	// EdgeFrom and EdgeTo are the delivery edge.
	EdgeFrom, EdgeTo int32
	// Consume reports whether the delivery consumed the message.
	Consume bool
	// DidChange reports whether the delivery changed the receiver.
	DidChange bool
}

// runStateMagic versions the binary run-state format, canonical key
// values included: a run state stores keys, so a change to the key
// function bumps it, and a document from the other side of the change
// is corrupt, not resumed. MCARS1 to MCARS2: time ranks folded packed;
// MCARS2 to MCARS3: one digest per component, ranks folded with its
// content. TestKeyFunctionMatchesRunStateMagic pins the key values each
// magic stands for.
const runStateMagic = "MCARS3\n"

// EncodeRunState renders a run state in its compact binary format
// (fixed-width canonical keys, varint-packed tree and counters,
// length-prefixed state buffers).
func EncodeRunState(rs *RunState) []byte {
	buf := make([]byte, 0, 64+32*len(rs.Nodes)+40*len(rs.Edges))
	buf = append(buf, runStateMagic...)
	buf = binary.AppendUvarint(buf, uint64(rs.NextLevel))
	buf = binary.AppendUvarint(buf, uint64(rs.States))
	buf = binary.AppendUvarint(buf, uint64(rs.MaxDepth))
	buf = binary.AppendUvarint(buf, uint64(len(rs.Nodes)))
	buf = binary.AppendUvarint(buf, uint64(rs.SeenCount))
	for i := range rs.Nodes {
		n := &rs.Nodes[i]
		buf = binary.LittleEndian.AppendUint64(buf, n.Key[0])
		buf = binary.LittleEndian.AppendUint64(buf, n.Key[1])
		buf = binary.AppendUvarint(buf, uint64(n.Parent+1))
		buf = binary.AppendUvarint(buf, uint64(n.From))
		buf = binary.AppendUvarint(buf, uint64(n.To))
		buf = append(buf, boolByte(n.Consume))
		buf = binary.AppendUvarint(buf, uint64(n.Depth))
		buf = binary.AppendUvarint(buf, uint64(n.Changes))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rs.Frontier)))
	for i := range rs.Frontier {
		it := &rs.Frontier[i]
		buf = binary.AppendUvarint(buf, uint64(it.Node))
		buf = binary.LittleEndian.AppendUint64(buf, it.RouteH)
		buf = binary.AppendUvarint(buf, uint64(len(it.State)))
		buf = append(buf, it.State...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rs.Edges)))
	for i := range rs.Edges {
		e := &rs.Edges[i]
		buf = binary.LittleEndian.AppendUint64(buf, e.From[0])
		buf = binary.LittleEndian.AppendUint64(buf, e.From[1])
		buf = binary.LittleEndian.AppendUint64(buf, e.To[0])
		buf = binary.LittleEndian.AppendUint64(buf, e.To[1])
		buf = binary.AppendUvarint(buf, uint64(e.EdgeFrom))
		buf = binary.AppendUvarint(buf, uint64(e.EdgeTo))
		flags := byte(0)
		if e.Consume {
			flags |= 1
		}
		if e.DidChange {
			flags |= 2
		}
		buf = append(buf, flags)
	}
	return buf
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// runStateReader decodes the binary format with bounds checking.
type runStateReader struct {
	buf []byte
	pos int
	err error
}

func (r *runStateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corrupt(format, args...)
	}
}

// corrupt is an ErrCorruptRunState error.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("explore: run state: %s: %w", fmt.Sprintf(format, args...), ErrCorruptRunState)
}

func (r *runStateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *runStateReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.fail("truncated word at offset %d", r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

func (r *runStateReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated byte at offset %d", r.pos)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *runStateReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	// Against the bytes remaining: r.pos+n wraps for n near MaxInt.
	if n < 0 || n > len(r.buf)-r.pos {
		r.fail("truncated %d-byte field at offset %d", n, r.pos)
		return nil
	}
	b := append([]byte(nil), r.buf[r.pos:r.pos+n]...)
	r.pos += n
	return b
}

// count reads a length prefix and sanity-bounds it against the bytes
// remaining (each element costs at least min bytes), so a corrupt
// length cannot drive a huge allocation.
func (r *runStateReader) count(min int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if remaining := len(r.buf) - r.pos; v > uint64(remaining/min)+1 {
		r.fail("length %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

// DecodeRunState parses a binary run-state document, validating its
// structure (magic, bounds, index ranges, tree shape) strictly.
func DecodeRunState(data []byte) (*RunState, error) {
	if len(data) < len(runStateMagic) || string(data[:len(runStateMagic)]) != runStateMagic {
		return nil, corrupt("bad magic (not a run-state document)")
	}
	r := &runStateReader{buf: data, pos: len(runStateMagic)}
	rs := &RunState{
		NextLevel: int(r.uvarint()),
		States:    int(r.uvarint()),
		MaxDepth:  int(r.uvarint()),
	}
	nNodes := r.count(19)
	rs.SeenCount = int(r.uvarint())
	rs.Nodes = make([]RunNode, 0, nNodes)
	for i := 0; i < nNodes && r.err == nil; i++ {
		n := RunNode{Key: [2]uint64{r.u64(), r.u64()}}
		n.Parent = int32(r.uvarint()) - 1
		n.From = int32(r.uvarint())
		n.To = int32(r.uvarint())
		n.Consume = r.byte() != 0
		n.Depth = int32(r.uvarint())
		n.Changes = int32(r.uvarint())
		rs.Nodes = append(rs.Nodes, n)
	}
	nItems := r.count(10)
	rs.Frontier = make([]RunItem, 0, nItems)
	for i := 0; i < nItems && r.err == nil; i++ {
		it := RunItem{Node: int32(r.uvarint()), RouteH: r.u64()}
		it.State = r.bytes(int(r.uvarint()))
		rs.Frontier = append(rs.Frontier, it)
	}
	nEdges := r.count(35)
	rs.Edges = make([]RunEdge, 0, nEdges)
	for i := 0; i < nEdges && r.err == nil; i++ {
		e := RunEdge{
			From: [2]uint64{r.u64(), r.u64()},
			To:   [2]uint64{r.u64(), r.u64()},
		}
		e.EdgeFrom = int32(r.uvarint())
		e.EdgeTo = int32(r.uvarint())
		flags := r.byte()
		e.Consume = flags&1 != 0
		e.DidChange = flags&2 != 0
		rs.Edges = append(rs.Edges, e)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(data) {
		return nil, corrupt("%d bytes of trailing data", len(data)-r.pos)
	}
	if err := rs.validate(); err != nil {
		return nil, err
	}
	return rs, nil
}

// validate checks the structural invariants resume relies on.
func (rs *RunState) validate() error {
	if rs.NextLevel < 1 {
		return corrupt("next level %d (capped runs stop after level 0 at the earliest)", rs.NextLevel)
	}
	if rs.States < 1 {
		return corrupt("state count %d", rs.States)
	}
	if rs.SeenCount < 0 || rs.SeenCount > len(rs.Nodes) {
		return corrupt("seen count %d outside the %d-node tree", rs.SeenCount, len(rs.Nodes))
	}
	for i := range rs.Nodes {
		p := rs.Nodes[i].Parent
		if p < -1 || int(p) >= len(rs.Nodes) || int(p) == i {
			return corrupt("node %d has parent index %d", i, p)
		}
		// Depth strictly increases along parent links (BFS tree), which
		// also rules out parent cycles that would hang trace replay.
		if p >= 0 && rs.Nodes[i].Depth <= rs.Nodes[p].Depth {
			return corrupt("node %d depth %d not below parent depth %d", i, rs.Nodes[i].Depth, rs.Nodes[p].Depth)
		}
	}
	for i := range rs.Frontier {
		n := rs.Frontier[i].Node
		if n < 0 || int(n) >= len(rs.Nodes) {
			return corrupt("frontier item %d references node %d of %d", i, n, len(rs.Nodes))
		}
	}
	return nil
}

// check validates what validate cannot without the scenario: every
// delivery in the tree and the transition log is over an edge of net,
// and every frontier item is the packed state of its node. Restore
// calls it once, so expansion never pays for it.
func (rs *RunState) check(agents []*mca.Agent, net *netsim.Network) error {
	isEdge := func(from, to int32) bool {
		return from >= 0 && int(from) < len(agents) && slices.Contains(net.Neighbors(int(from)), int(to))
	}
	for i, n := range rs.Nodes {
		if n.Parent >= 0 && !isEdge(n.From, n.To) {
			return corrupt("node %d is reached over %d->%d, not an edge of the scenario", i, n.From, n.To)
		}
	}
	for i, e := range rs.Edges {
		if !isEdge(e.EdgeFrom, e.EdgeTo) {
			return corrupt("transition %d is over %d->%d, not an edge of the scenario", i, e.EdgeFrom, e.EdgeTo)
		}
	}
	var ks keyScratch
	for i, it := range rs.Frontier {
		if !unpackState(agents, net, it.State) || ks.key(agents, net) != rs.Nodes[it.Node].Key {
			return corrupt("frontier item %d is not the packed state of node %d", i, it.Node)
		}
	}
	return nil
}

// unpackState decodes buf into agents and net and reports whether buf
// is exactly the encoding of the state it decoded to. The decoders
// trust their input (they run on every expansion) and panic on a
// truncated buffer or an index past the scenario's sizes.
func unpackState(agents []*mca.Agent, net *netsim.Network, buf []byte) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	rest := buf
	for _, a := range agents {
		rest = a.DecodeState(rest)
	}
	net.DecodeState(rest)
	return bytes.Equal(net.AppendState(encodeStates(agents, nil)), buf)
}
