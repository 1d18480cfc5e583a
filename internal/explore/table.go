package explore

// stateTable is the explorers' compact seen-set: an open-addressing
// hash table from 128-bit canonical state keys to exploration-tree
// nodes. Compared with the Go map it replaced, it probes flat parallel
// arrays (no per-entry heap allocation, no bucket pointers for the
// garbage collector to chase) and exposes its occupancy and probe
// behavior on the Verdict, so state-store health is observable.
//
// Keys are already uniform 128-bit hashes, so slot selection uses the
// second key word directly (the first word is the parallel frontier's
// shard selector — using the other word keeps shard-local tables from
// degenerating into a single probe chain). Linear probing; slots whose
// node is nil are empty; entries are never deleted.
type stateTable struct {
	keys  [][2]uint64
	nodes []*pathNode
	mask  uint64
	n     int
	// Stats, reported on Verdict.Store: lookups counts get/insert
	// operations, probes the total slots examined serving them.
	lookups uint64
	probes  uint64
}

const stateTableMinSlots = 64

func (t *stateTable) init(slots int) {
	c := stateTableMinSlots
	for c < slots {
		c <<= 1
	}
	t.keys = make([][2]uint64, c)
	t.nodes = make([]*pathNode, c)
	t.mask = uint64(c - 1)
	t.n = 0
}

// get returns the node stored under k, or nil. Only the owning worker
// may call it (it updates the stats counters).
func (t *stateTable) get(k [2]uint64) *pathNode {
	t.lookups++
	i := k[1] & t.mask
	for t.nodes != nil {
		t.probes++
		n := t.nodes[i]
		if n == nil {
			return nil
		}
		if t.keys[i] == k {
			return n
		}
		i = (i + 1) & t.mask
	}
	return nil
}

// peek is get without the stats updates: safe for concurrent readers
// while no writer is active — the parallel frontier's producer-side
// pruning reads peer shards' sealed tables this way during the expand
// phase, and sealed tables are written only in the merge phase.
func (t *stateTable) peek(k [2]uint64) *pathNode {
	if t.nodes == nil {
		return nil
	}
	i := k[1] & t.mask
	for {
		n := t.nodes[i]
		if n == nil {
			return nil
		}
		if t.keys[i] == k {
			return n
		}
		i = (i + 1) & t.mask
	}
}

// insert stores node under k; keys already present keep their resident
// node (callers dedup with get/peek first, so double inserts are
// no-ops by construction).
func (t *stateTable) insert(k [2]uint64, node *pathNode) {
	if t.nodes == nil {
		t.init(stateTableMinSlots)
	} else if uint64(t.n)*4 >= uint64(len(t.nodes))*3 {
		t.grow()
	}
	t.lookups++
	i := k[1] & t.mask
	for {
		t.probes++
		ex := t.nodes[i]
		if ex == nil {
			t.keys[i] = k
			t.nodes[i] = node
			t.n++
			return
		}
		if t.keys[i] == k {
			return
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table and reinserts every entry (growth rehashing is
// excluded from the probe stats — it measures table sizing, not lookup
// behavior).
func (t *stateTable) grow() {
	oldKeys, oldNodes := t.keys, t.nodes
	t.init(len(oldNodes) * 2)
	for i, n := range oldNodes {
		if n == nil {
			continue
		}
		k := oldKeys[i]
		j := k[1] & t.mask
		for t.nodes[j] != nil {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.nodes[j] = n
		t.n++
	}
}

// clear empties the table, keeping its capacity (the parallel
// frontier's per-level fresh set is cleared once per level).
func (t *stateTable) clear() {
	clear(t.nodes)
	t.n = 0
}

// reset drops every entry and the table's capacity with them — the
// disk-spill path has just moved the entries into a segment file, and
// shedding the slots is the point of spilling. The stats counters keep
// running.
func (t *stateTable) reset() {
	t.init(stateTableMinSlots)
}

// forEach visits every entry in unspecified order.
func (t *stateTable) forEach(f func(k [2]uint64, n *pathNode)) {
	for i, n := range t.nodes {
		if n != nil {
			f(t.keys[i], n)
		}
	}
}

// addStats accumulates this table's counters into s.
func (t *stateTable) addStats(s *StoreStats) {
	s.Entries += t.n
	s.Slots += len(t.nodes)
	s.Lookups += t.lookups
	s.Probes += t.probes
}

// StoreStats reports seen-set health: how full the open-addressing
// state store ran and how expensive its probes were. Probes/Lookups
// near 1.0 means the table stayed healthy; values drifting up indicate
// clustering (or an adversarial key distribution).
type StoreStats struct {
	// Entries is the number of distinct states stored.
	Entries int
	// Slots is the allocated slot count across all tables.
	Slots int
	// Lookups counts get/insert operations against the store.
	Lookups uint64
	// Probes counts the total slots examined serving those lookups.
	Probes uint64
	// Spilled is the number of sealed entries resident in disk segment
	// files rather than memory when the run finished (disk-spill mode
	// only; these are also counted in Entries).
	Spilled int
	// Keys counts canonical-key computations: one per state the serial
	// DFS enters, one per transition the frontier generates. Diagnostic
	// like Probes.
	Keys uint64
	// WideKeys counts the key computations whose timestamps spanned 64
	// values or more and were ranked against the sorted universe instead
	// of one 64-bit word (docs/PERFORMANCE.md, "Time part").
	WideKeys uint64
}

// nodeArena allocates pathNodes in fixed-size blocks: node pointers are
// stable (blocks never move), the per-state allocation the tree used to
// pay disappears, and the garbage collector sees a handful of block
// slices instead of millions of individual nodes.
type nodeArena struct {
	blocks [][]pathNode
}

const arenaBlockSize = 4096

// alloc returns a pointer to a zeroed node with stable address.
func (ar *nodeArena) alloc() *pathNode {
	if len(ar.blocks) == 0 || len(ar.blocks[len(ar.blocks)-1]) == arenaBlockSize {
		ar.blocks = append(ar.blocks, make([]pathNode, 0, arenaBlockSize))
	}
	b := &ar.blocks[len(ar.blocks)-1]
	*b = append(*b, pathNode{})
	return &(*b)[len(*b)-1]
}
