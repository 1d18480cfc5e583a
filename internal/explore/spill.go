package explore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// spillStore is one shard's disk residence for sealed states. When the
// in-memory sealed table grows past the spill threshold, its entries
// are merged into a single sorted segment file of fixed 16-byte key
// records (written to a temp file, then atomically renamed) and the
// table is dropped; the shard then deduplicates arriving items by a
// sequential merge scan of the segment — its bucket is already sorted
// by key, so each level costs one pass, no random access and no mmap.
//
// The segment holds only keys. Node pointers — needed for trace
// reconstruction and the end-of-run oscillation analysis — stay in a
// flat in-memory slice parallel to the record order (8 bytes per
// spilled state; the nodes themselves live in arenas either way), so
// spilling sheds the open-addressing table's dominant cost: 24-byte
// slots at <=75% occupancy plus growth spikes.
//
// Spill is verdict-neutral by construction: membership answers are
// exact (the segment is a complete record of what was sealed), only
// the producer-side peek pruning loses visibility of spilled entries —
// and that pruning is best-effort by design, with arrival dedup as the
// exact backstop.
type spillStore struct {
	dir       string
	shard     int
	threshold int
	path      string      // current segment file; "" when nothing is spilled
	count     int         // records in the segment
	nodes     []*pathNode // node pointers in segment record order
	gen       int
	disabled  bool // a write failure stops further spilling (in-memory fallback)
	spills    int
}

const spillRecordSize = 16

// maybeSpill merges the sealed table into the segment and drops it,
// when the threshold is crossed. Runs in the owner's merge phase, when
// no peer reads the table; from the next expand phase on peers find it
// empty and route items the owner deduplicates against the segment on
// arrival.
func (s *spillStore) maybeSpill(t *stateTable) {
	if s == nil || s.disabled || t.n < s.threshold {
		return
	}
	type ent struct {
		key  [2]uint64
		node *pathNode
	}
	fresh := make([]ent, 0, t.n)
	t.forEach(func(k [2]uint64, n *pathNode) {
		fresh = append(fresh, ent{k, n})
	})
	sort.Slice(fresh, func(i, j int) bool { return keyLess(fresh[i].key, fresh[j].key) })

	tmp := filepath.Join(s.dir, fmt.Sprintf("shard-%d-%d.tmp", s.shard, s.gen))
	f, err := os.Create(tmp)
	if err != nil {
		s.disabled = true
		return
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	merged := make([]*pathNode, 0, s.count+len(fresh))
	var rec [spillRecordSize]byte
	writeRec := func(k [2]uint64, n *pathNode) error {
		binary.LittleEndian.PutUint64(rec[0:8], k[0])
		binary.LittleEndian.PutUint64(rec[8:16], k[1])
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		merged = append(merged, n)
		return nil
	}
	// Merge the existing segment stream (sorted, disjoint from the
	// fresh batch: arrival dedup consults the segment, so a spilled key
	// is never sealed again) with the sorted fresh entries. A cursor
	// read error aborts the merge exactly like a write error — the old
	// segment and the sealed table both stay intact, so disabling spill
	// keeps the run exact, just back in memory.
	werr := func() error {
		cur, err := s.openCursor()
		if err != nil {
			return err
		}
		if cur != nil {
			defer cur.close()
		}
		oldIdx := 0
		for _, e := range fresh {
			for cur != nil && cur.valid && keyLess(cur.cur, e.key) {
				if err := writeRec(cur.cur, s.nodes[oldIdx]); err != nil {
					return err
				}
				oldIdx++
				cur.next()
			}
			if err := writeRec(e.key, e.node); err != nil {
				return err
			}
		}
		for cur != nil && cur.valid {
			if err := writeRec(cur.cur, s.nodes[oldIdx]); err != nil {
				return err
			}
			oldIdx++
			cur.next()
		}
		if cur != nil && cur.err != nil {
			return cur.err
		}
		return bw.Flush()
	}()
	if werr == nil {
		werr = f.Close()
	} else {
		f.Close()
	}
	if werr != nil {
		os.Remove(tmp)
		s.disabled = true
		return
	}
	seg := filepath.Join(s.dir, fmt.Sprintf("shard-%d-%d.seg", s.shard, s.gen))
	if err := os.Rename(tmp, seg); err != nil {
		os.Remove(tmp)
		s.disabled = true
		return
	}
	if s.path != "" {
		os.Remove(s.path)
	}
	s.gen++
	s.spills++
	s.path = seg
	s.count = len(merged)
	s.nodes = merged
	t.reset()
}

// forEach streams every spilled (key, node) pair in key order. Callers
// run it only after the level loop has returned. A segment read
// failure aborts the stream and is returned — the caller's view is
// incomplete and must not be trusted.
func (s *spillStore) forEach(f func(k [2]uint64, n *pathNode)) error {
	if s == nil || s.path == "" {
		return nil
	}
	cur, err := s.openCursor()
	if err != nil {
		return err
	}
	if cur == nil {
		return nil
	}
	defer cur.close()
	for i := 0; cur.valid; i++ {
		f(cur.cur, s.nodes[i])
		cur.next()
	}
	return cur.err
}

// addToStats accumulates the spilled-entry counts into st.
func (s *spillStore) addToStats(st *StoreStats) {
	if s == nil {
		return
	}
	st.Entries += s.count
	st.Spilled += s.count
}

// openCursor opens a sequential reader over the current segment, or
// returns (nil, nil) when nothing is spilled. The segment was written
// and renamed by this process; losing it mid-run cannot be recovered
// without giving up exact dedup (and with it verdict determinism), so
// the error must abort the run — as a hard StatusError, never a wrong
// verdict and never a panic.
func (s *spillStore) openCursor() (*segCursor, error) {
	if s == nil || s.path == "" {
		return nil, nil
	}
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("explore: spill segment %s unreadable: %w", s.path, err)
	}
	c := &segCursor{f: f, r: bufio.NewReaderSize(f, 1<<16), remaining: s.count}
	c.next()
	return c, nil
}

// segCursor is a sequential reader over one sorted segment file. A
// read failure latches err and ends the stream (valid goes false);
// callers that must distinguish EOF from damage check err after the
// scan.
type segCursor struct {
	f         *os.File
	r         *bufio.Reader
	cur       [2]uint64
	valid     bool
	remaining int
	err       error
}

// next advances to the following record; valid goes false at EOF or on
// a read error (latched in err).
func (c *segCursor) next() {
	if c.remaining == 0 || c.err != nil {
		c.valid = false
		return
	}
	var rec [spillRecordSize]byte
	if _, err := io.ReadFull(c.r, rec[:]); err != nil {
		c.err = fmt.Errorf("explore: spill segment %s read: %w", c.f.Name(), err)
		c.valid = false
		return
	}
	c.cur[0] = binary.LittleEndian.Uint64(rec[0:8])
	c.cur[1] = binary.LittleEndian.Uint64(rec[8:16])
	c.remaining--
	c.valid = true
}

// seek advances the cursor to the first record >= k (records and the
// calling sequence are both key-ascending) and reports whether k is
// present.
func (c *segCursor) seek(k [2]uint64) bool {
	for c.valid && keyLess(c.cur, k) {
		c.next()
	}
	return c.valid && c.cur == k
}

func (c *segCursor) close() { c.f.Close() }
