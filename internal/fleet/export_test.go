package fleet

import (
	"context"
	"sync"
	"time"

	"repro/internal/engine"
)

// Cooldown is the breaker's first open interval, for tests that step
// the clock past it.
const Cooldown = breakerCooldown

// MaxBatch is the most units one /fleet/work body carries.
const MaxBatch = maxBatch

// DecodeWorkBody is the worker's reader of a /fleet/work body.
func DecodeWorkBody(body []byte) ([]engine.WorkUnit, error) {
	return engine.DecodeWorkUnits(body, maxBatch)
}

// RemoteEngine is the engine a Runner of c verifies eng through, with a
// queue of its own on the given credit; queued reports how many of its
// units wait for a carrier.
func RemoteEngine(c *Coordinator, eng engine.Engine, credit int) (e engine.Engine, queued func() int) {
	spec, _ := engine.EncodeEngineSpec(eng)
	q := &queue{c: c, credit: credit, local: make(chan struct{}, credit), lanes: map[context.Context]*lane{}}
	q.cost.Store(-1)
	return remote{c: c, local: eng, spec: string(spec), q: q}, func() int {
		q.mu.Lock()
		defer q.mu.Unlock()
		n := 0
		for _, l := range q.lanes {
			n += len(l.units)
		}
		return n
	}
}

// Credit is the number of tokens the worker at url has in c's dispatch
// pool: its learned slots plus any surplus not yet retired.
func Credit(c *Coordinator, url string) int {
	for _, ws := range c.workers {
		if ws.url == url {
			return max(int(ws.slots.Load()), 1) + int(ws.surplus.Load())
		}
	}
	return 0
}

// Pooled is the number of tokens in c's dispatch pool; with no batch
// running, every token in circulation.
func Pooled(c *Coordinator) int { return len(c.tokens) }

// FakeClock is a coordinator clock that tests step by hand. A wait
// never blocks: it records the delay asked for and moves the clock past
// it at once, so retry paths run at CPU speed and every delay the
// coordinator chose can be asserted.
type FakeClock struct {
	mu    sync.Mutex
	t     time.Time
	waits []time.Duration
}

// UseFakeClock replaces c's clock with a fake one; call it before c
// runs anything.
func UseFakeClock(c *Coordinator) *FakeClock {
	f := &FakeClock{t: time.Unix(0, 0)}
	c.clock = clock{now: f.now, after: f.after}
	return f
}

// Advance moves the clock forward by d.
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// Waits returns every delay the coordinator has waited out, in order.
func (f *FakeClock) Waits() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.waits...)
}

func (f *FakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *FakeClock) after(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.waits = append(f.waits, d)
	f.t = f.t.Add(d)
	ch := make(chan time.Time, 1)
	ch <- f.t
	return ch
}
