package explore

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/mca"
	"repro/internal/netsim"
)

// DFSState is the cut of a budget-capped serial check (CheckFrom): the
// exact seen-set, the delivery path from the initial state to the state
// the search was about to enter, and the verdict counters. Everything
// else the search holds is derived from the path: resuming replays it
// through the transition function, re-deriving each ancestor's key,
// path mark and pending deliveries, and each ancestor's branch loop
// continues at its recorded step. There is one DFS order, so the
// resumed run is the uninterrupted run.
type DFSState struct {
	// States and MaxDepth are the verdict counters at the cut.
	States, MaxDepth int
	// Path is one delivery per depth, from the initial state to the cut.
	Path []Step
	// Visited is the exact seen-set, sorted by key and without
	// repeats: every state the search had finished (its subtree
	// explored, or quiescent). The states on Path are the others it had
	// counted, so States = len(Visited) + len(Path).
	Visited [][2]uint64
}

// Step is one delivery of a DFSState path: the head message of Edge,
// consumed, or (DuplicateDeliveries) left in flight.
type Step struct {
	Edge    netsim.Edge
	Consume bool
}

// dfsStateMagic versions the DFS run-state format, canonical key
// values included, as runStateMagic does the frontier's: the seen-set
// is stored as keys, so a change to the key function bumps it, and a
// document from the other side of the change is corrupt, not resumed.
// MCARS3, the frontier's tree and routed frontier, is refused by name.
// TestKeyFunctionMatchesRunStateMagic pins the key values it stands for.
const dfsStateMagic = "MCARS4\n"

// EncodeDFSState renders a DFS cut in its binary format: the magic, the
// counters and the path as uvarints (a step is from, to and a consume
// byte), then the sorted keys as fixed-width little-endian words.
func EncodeDFSState(st *DFSState) []byte {
	buf := make([]byte, 0, 32+3*len(st.Path)+16*len(st.Visited))
	buf = append(buf, dfsStateMagic...)
	buf = binary.AppendUvarint(buf, uint64(st.States))
	buf = binary.AppendUvarint(buf, uint64(st.MaxDepth))
	buf = binary.AppendUvarint(buf, uint64(len(st.Path)))
	for _, s := range st.Path {
		buf = binary.AppendUvarint(buf, uint64(s.Edge.From))
		buf = binary.AppendUvarint(buf, uint64(s.Edge.To))
		buf = append(buf, boolByte(s.Consume))
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Visited)))
	for _, k := range st.Visited {
		buf = binary.LittleEndian.AppendUint64(buf, k[0])
		buf = binary.LittleEndian.AppendUint64(buf, k[1])
	}
	return buf
}

// DecodeDFSState parses a DFS cut strictly: the magic, every length
// against the bytes left, every field's range, no trailing bytes, and
// the invariants validate states. Whether the path is one the check
// could take is known only with the scenario; CheckFrom's replay
// decides it. Every failure wraps ErrCorruptRunState.
func DecodeDFSState(data []byte) (*DFSState, error) {
	if bytes.HasPrefix(data, []byte(runStateMagic)) {
		return nil, corrupt("a sharded-frontier run state (%q), which no longer resumes: re-verify from scratch", runStateMagic)
	}
	if !bytes.HasPrefix(data, []byte(dfsStateMagic)) {
		return nil, corrupt("bad magic (not a DFS run-state document)")
	}
	r := &runStateReader{buf: data, pos: len(dfsStateMagic)}
	st := &DFSState{States: r.int(), MaxDepth: r.int()}
	n := r.count(3)
	st.Path = make([]Step, 0, n)
	for range n {
		from, to := r.int(), r.int()
		consume := r.byte()
		if r.err == nil && (from > math.MaxInt32 || to > math.MaxInt32 || consume > 1) {
			r.fail("path step %d is %d->%d mode %d", len(st.Path), from, to, consume)
		}
		if r.err != nil {
			return nil, r.err
		}
		st.Path = append(st.Path, Step{Edge: netsim.Edge{From: mca.AgentID(from), To: mca.AgentID(to)}, Consume: consume == 1})
	}
	n = r.count(16)
	st.Visited = make([][2]uint64, 0, n)
	for range n {
		st.Visited = append(st.Visited, [2]uint64{r.u64(), r.u64()})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(data) {
		return nil, corrupt("%d bytes of trailing data", len(data)-r.pos)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// validate checks the invariants every cut of a capped run keeps: the
// cut is below the initial state, the counters account for exactly the
// visited keys and the path, and the keys are sorted without repeats.
func (st *DFSState) validate() error {
	switch {
	case len(st.Path) == 0:
		return corrupt("an empty path (a capped run stops below the initial state)")
	case st.States != len(st.Visited)+len(st.Path):
		return corrupt("%d states for %d visited keys and a %d-step path", st.States, len(st.Visited), len(st.Path))
	case st.MaxDepth < len(st.Path):
		return corrupt("deepest depth %d short of a %d-step path", st.MaxDepth, len(st.Path))
	}
	for i := 1; i < len(st.Visited); i++ {
		if !keyLess(st.Visited[i-1], st.Visited[i]) {
			return corrupt("visited key %d out of order", i)
		}
	}
	return nil
}

// int reads a uvarint that must fit an int.
func (r *runStateReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail("value %d out of range", v)
		return 0
	}
	return int(v)
}

// sortedKeys returns the store's keys in keyLess order.
func (e *exactSeen) sortedKeys() [][2]uint64 {
	keys := make([][2]uint64, 0, e.t.n)
	e.t.forEach(func(k [2]uint64, _ *pathNode) { keys = append(keys, k) })
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}
