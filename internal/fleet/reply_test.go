package fleet

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestShareRule pins how many queued units a dispatch carries: one while
// the Runner has no measurement or its last dispatch measured expensive,
// else ⌈queued ÷ credit⌉ up to maxBatch.
func TestShareRule(t *testing.T) {
	q := &queue{credit: 4}
	for _, tc := range []struct {
		cost        time.Duration
		queued, out int
	}{
		{-1, 60, 1}, {cheapUnit, 60, 1}, {5 * time.Millisecond, 2, 1}, {-1, 0, 0},
		{cheapUnit - 1, 60, 15}, {0, 64, 16}, {0, 200, maxBatch}, {0, 5, 2}, {0, 4, 1}, {0, 1, 1}, {0, 0, 0},
	} {
		q.cost.Store(int64(tc.cost))
		if got := q.share(tc.queued); got != tc.out {
			t.Errorf("cost %v, %d queued on credit 4: share %d, want %d", tc.cost, tc.queued, got, tc.out)
		}
	}
}

// TestRegrowCancelsOutstandingSurplus: tokens out on dispatches when a
// worker's credit shrinks become surplus; a regrow while they are still
// out cancels that surplus instead of adding tokens, so once they come
// back the pool holds exactly the regrown credit.
func TestRegrowCancelsOutstandingSurplus(t *testing.T) {
	c, err := NewCoordinator(CoordinatorOptions{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	ws := c.workers[0]
	c.resize(ws, 4)
	var out []*workerState
	for i := 0; i < 4; i++ {
		w, err := c.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	c.resize(ws, 1)
	c.resize(ws, 4)
	for _, w := range out {
		c.release(w)
	}
	if n, s := len(c.tokens), ws.surplus.Load(); n != 4 || s != 0 {
		t.Fatalf("%d tokens pooled, %d surplus, want 4 and 0", n, s)
	}
}

// replyBatch is the batch FuzzReadReply answers: three units.
func replyBatch() []*unit {
	return []*unit{{index: 7}, {index: 8}, {index: 9}}
}

// replyLine is a worker's line for unit index.
func replyLine(t testing.TB, index int, r engine.Result) []byte {
	r.Index = index
	data, err := engine.EncodeResult(&r)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// FuzzReadReply: a reply body is what a coordinator reads off the
// network for a batch it sent. Whatever the body, either every unit
// gets its own result — the one its line of the body holds, echoing its
// index, with the batch position cleared — or the whole batch gets one
// error: never a result read from another unit's line, and never some
// units answered while others fail.
func FuzzReadReply(f *testing.F) {
	results := []engine.Result{
		{Scenario: "a", Engine: "explicit", Status: engine.StatusHolds, Stats: engine.Stats{States: 12, Wall: 99}},
		{Scenario: "b<&>", Engine: "simulation", Status: engine.StatusViolated, Stats: engine.Stats{Runs: 1}},
		{Scenario: "c", Engine: "sat", Status: engine.StatusError},
	}
	var good []byte
	for i, u := range replyBatch() {
		good = append(good, replyLine(f, u.index, results[i])...)
	}
	f.Add(good)
	lines := bytes.SplitAfter(good, []byte("\n"))
	f.Add(bytes.Join([][]byte{lines[1], lines[0], lines[2]}, nil))         // out of order
	f.Add(bytes.Join(lines[:2], nil))                                      // too few
	f.Add(append(bytes.Clone(good), good[:len(lines[0])]...))              // too many
	f.Add(good[:len(good)-1])                                              // no final newline
	f.Add(bytes.Replace(good, []byte(`,"index"`), []byte(`, "index"`), 1)) // another spelling
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, reply []byte) {
		batch := replyBatch()
		got, err := readReply(reply, batch)
		if err != nil {
			if got != nil {
				t.Fatalf("error %v, and %d results besides", err, len(got))
			}
			return
		}
		if len(got) != len(batch) {
			t.Fatalf("%d results for %d units", len(got), len(batch))
		}
		lines := bytes.SplitAfter(reply, []byte("\n"))
		for i, u := range batch {
			own, err := engine.DecodeResult(lines[i])
			if err != nil || own.Index != u.index {
				t.Fatalf("unit %d answered from line %q (index %d, %v)", u.index, lines[i], own.Index, err)
			}
			if got[i].Index != -1 {
				t.Fatalf("unit %d: result keeps batch position %d", u.index, got[i].Index)
			}
			own.Index = -1
			mine, _ := engine.EncodeResult(&got[i])
			want, _ := engine.EncodeResult(&own)
			if !bytes.Equal(mine, want) {
				t.Fatalf("unit %d got\n%s\nits line reads\n%s", u.index, mine, want)
			}
		}
	})
}
