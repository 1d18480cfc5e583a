package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// ErrDraining marks results the coordinator reported inconclusive
// because Quiesce stopped dispatching before their unit ran.
var ErrDraining = errors.New("fleet: coordinator draining")

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Workers lists worker base URLs (scheme://host:port); the fleet
	// endpoints are resolved under each. At least one is required.
	Workers []string
	// Client is the dispatch HTTP client (default: a client over
	// DispatchTransport with no global timeout — UnitTimeout bounds each
	// dispatch).
	Client *http.Client
	// Cache, when non-nil, is the result cache of the Runner that
	// schedules the fleet's batches: a unit whose content address is
	// already conclusive never leaves the coordinator, and conclusive
	// verdicts that come back from workers are stored.
	Cache engine.ResultCache
	// UnitTimeout is each unit's share of a dispatch's deadline
	// (default 2m): a dispatch of n units, remote verification
	// included, is bounded by n × UnitTimeout. The remaining budget
	// travels with the request (X-Fleet-Deadline-Ms), so the worker's
	// engine context expires with the coordinator's interest in the
	// answer. The units of a dispatch that times out are re-dispatched.
	UnitTimeout time.Duration
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Client == nil {
		o.Client = &http.Client{Transport: DispatchTransport()}
	}
	if o.UnitTimeout <= 0 {
		o.UnitTimeout = 2 * time.Minute
	}
	return o
}

// The retry policy is fixed in code. A unit gets maxAttempts remote
// attempts, backing off backoffBase before the first retry and twice as
// long before each next one, and is then verified locally, so a sweep
// completes with identical verdicts even when every worker is dead. A
// worker's breaker opens after breakerThreshold consecutive failures
// and fails dispatches fast for breakerCooldown, doubled per
// consecutive reopen, until a half-open probe dispatch decides. Every
// delay is capped at maxDelay.
const (
	maxAttempts      = 3
	backoffBase      = 50 * time.Millisecond
	breakerThreshold = 2
	breakerCooldown  = 500 * time.Millisecond
)

// maxDelay caps every retry delay and breaker cooldown, backoff and
// Retry-After alike: a unit is stretched, never parked, while local
// fallback could finish it, and a worker that recovers is rediscovered
// within seconds.
const maxDelay = 2 * time.Second

// capped is base doubled n times, at most maxDelay. Doubling stops at
// the cap, so no n, however large, can overflow it into a zero or
// negative delay.
func capped(base time.Duration, n int) time.Duration {
	d := base
	for i := 0; i < n && d < maxDelay; i++ {
		d *= 2
	}
	return min(d, maxDelay)
}

// clock is the coordinator's time source: breakers read now, retry
// waits use after. NewCoordinator sets the real clock; tests step a
// fake one.
type clock struct {
	now   func() time.Time
	after func(time.Duration) <-chan time.Time
}

// workerState is one worker's live view. Its circuit breaker is the one
// health view: it decides fast-fail versus real dispatch, and a worker
// is healthy while its breaker is closed.
type workerState struct {
	url       string
	completed atomic.Uint64
	failures  atomic.Uint64
	br        *breaker
	// slots is the admission limit the worker advertised on
	// /fleet/health, 0 until it has answered. The worker has that many
	// tokens in the coordinator's pool — one while it is unknown, so the
	// breaker and the retry path still see it — plus surplus.
	slots atomic.Int32
	// relearn is set by a 429: the worker admits fewer requests than
	// its credit (it restarted with fewer slots), so the next learnCredit
	// asks it again.
	relearn atomic.Bool
	// surplus counts tokens beyond slots still in circulation after a
	// relearned limit came back lower; each leaves the pool when it is
	// next drawn or returned.
	surplus atomic.Int32
}

// retire takes one token of ws out of circulation if any is surplus,
// and reports whether it did.
func (ws *workerState) retire() bool {
	for n := ws.surplus.Load(); n > 0; n = ws.surplus.Load() {
		if ws.surplus.CompareAndSwap(n, n-1) {
			return true
		}
	}
	return false
}

func (ws *workerState) status(healthy bool) WorkerStatus {
	return WorkerStatus{
		URL: ws.url, Healthy: healthy,
		Completed: ws.completed.Load(), Failures: ws.failures.Load(), Breaker: ws.br.label(),
	}
}

// failed records one failed round trip to the worker.
func (ws *workerState) failed(now time.Time) {
	ws.failures.Add(1)
	ws.br.onFailure(now)
}

// maxWorkerCredit clamps an advertised slot count: the token pool is
// allocated up front, and a confused health document must not size it.
const maxWorkerCredit = 256

// DispatchTransport returns a fresh clone of http.DefaultTransport that
// keeps up to maxWorkerCredit idle connections per worker. The default
// keeps two, so a coordinator dispatching at a credit above two would
// close and re-dial connections on every batch.
func DispatchTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = maxWorkerCredit
	return t
}

// Stats is a point-in-time snapshot of the coordinator's counters.
type Stats struct {
	// Dispatches counts HTTP dispatch attempts, each carrying 1 to
	// maxBatch units; Completed units that came back from a worker, so
	// Completed ÷ Dispatches is about the units per dispatch; Retries
	// unit re-dispatches after a failure or rejection; Rejections 429
	// responses from saturated workers.
	Dispatches uint64 `json:"dispatches"`
	Completed  uint64 `json:"completed"`
	Retries    uint64 `json:"retries"`
	Rejections uint64 `json:"rejections"`
	// LocalFallbacks counts units verified on the coordinator — after
	// exhausting remote attempts, or at once when the scenario cannot be
	// encoded; Drained units reported inconclusive because of Quiesce.
	LocalFallbacks uint64 `json:"local_fallbacks"`
	Drained        uint64 `json:"drained"`
	// BreakerFastFails counts dispatch attempts answered by an open
	// circuit breaker instead of an HTTP round trip; each one still
	// counts against every unit it would have carried.
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
	// Workers is the per-worker health view.
	Workers []WorkerStatus `json:"workers"`
}

// WorkerStatus is one worker's row in Stats.
type WorkerStatus struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Completed uint64 `json:"completed"`
	Failures  uint64 `json:"failures"`
	// Breaker is the worker's circuit-breaker state: "closed", "open",
	// or "half_open".
	Breaker string `json:"breaker"`
}

// Coordinator dispatches verification batches across a worker fleet.
// It is safe for concurrent use: every batch is scheduled by its own
// engine.Runner, and all of them draw dispatch credit from one pool.
type Coordinator struct {
	opts    CoordinatorOptions
	clock   clock
	workers []*workerState

	// tokens is the fleet's dispatch credit: one per request a worker
	// admits concurrently, held for the dispatch's round trip, so a
	// healthy fleet is never over-offered however many batches are in
	// flight.
	tokens  chan *workerState
	learnMu sync.Mutex   // serializes learnCredit
	units   atomic.Int64 // work-unit index source

	quiesceOnce sync.Once
	quiesce     chan struct{}

	dispatches       atomic.Uint64
	completed        atomic.Uint64
	retries          atomic.Uint64
	rejections       atomic.Uint64
	localFallbacks   atomic.Uint64
	drained          atomic.Uint64
	breakerFastFails atomic.Uint64
}

// NewCoordinator builds a coordinator over the configured workers.
func NewCoordinator(o CoordinatorOptions) (*Coordinator, error) {
	o = o.withDefaults()
	if len(o.Workers) == 0 {
		return nil, errors.New("fleet: coordinator needs at least one worker URL")
	}
	c := &Coordinator{
		opts:    o,
		clock:   clock{now: time.Now, after: time.After},
		quiesce: make(chan struct{}),
		tokens:  make(chan *workerState, len(o.Workers)*maxWorkerCredit),
	}
	for _, u := range o.Workers {
		ws := &workerState{url: u, br: newBreaker()}
		c.workers = append(c.workers, ws)
		c.tokens <- ws
	}
	return c, nil
}

// Quiesce permanently stops the coordinator from starting new
// dispatches: units still waiting for credit or a retry come back
// inconclusive (ErrDraining) while units already on a worker finish
// normally. It is the fleet half of connection draining — call it when
// the process begins shutting down.
func (c *Coordinator) Quiesce() {
	c.quiesceOnce.Do(func() { close(c.quiesce) })
}

// Stats snapshots the dispatch counters and worker health.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Dispatches:       c.dispatches.Load(),
		Completed:        c.completed.Load(),
		Retries:          c.retries.Load(),
		Rejections:       c.rejections.Load(),
		LocalFallbacks:   c.localFallbacks.Load(),
		Drained:          c.drained.Load(),
		BreakerFastFails: c.breakerFastFails.Load(),
	}
	for _, ws := range c.workers {
		st.Workers = append(st.Workers, ws.status(ws.br.closed()))
	}
	return st
}

// ---- scheduling ----

// Runner returns the scheduler for one batch over the fleet: an
// ordinary engine.Runner — pool, cache short-circuit and store, results
// by index, cancellation — whose engine runs eng (nil = Auto) on a
// worker instead of here. Results, and the summary but for its wall,
// are therefore byte-identical to a single-process Runner over the same
// scenarios and eng, at any worker count and under any failure/retry
// interleaving. Runner first learns the fleet's credit from any worker
// that has not yet said, and makes the pool maxBatch times as wide, so
// that units queue here for a dispatch to carry several.
func (c *Coordinator) Runner(ctx context.Context, eng engine.Engine) *engine.Runner {
	if eng == nil {
		eng = engine.Auto{}
	}
	// A custom engine has no spec: its units all run here.
	spec, _ := engine.EncodeEngineSpec(eng)
	credit := c.learnCredit(ctx)
	q := &queue{c: c, credit: credit, local: make(chan struct{}, credit), lanes: map[context.Context]*lane{}}
	q.cost.Store(-1)
	return engine.NewRunner(engine.RunnerOptions{
		Workers: 2 * credit * maxBatch,
		Engine:  remote{c: c, local: eng, spec: string(spec), q: q},
		Cache:   c.opts.Cache,
	})
}

// Run verifies the batch across the fleet and returns results indexed
// by scenario plus the aggregated summary.
func (c *Coordinator) Run(ctx context.Context, eng engine.Engine, scenarios []engine.Scenario) ([]engine.Result, engine.Summary) {
	return c.Runner(ctx, eng).Run(ctx, scenarios)
}

// learnCredit asks every worker whose admission limit is unknown, or
// was put in doubt by a 429, for its /fleet/health slots — in parallel,
// so at most one round trip per batch — resizes its share of the token
// pool to match, and returns the fleet's total credit. A worker that
// does not answer keeps its tokens and takes the failure like a failed
// dispatch; once its breaker opens it is not asked again until the
// breaker closes, so a dead worker costs batches no standing timeout.
func (c *Coordinator) learnCredit(ctx context.Context) int {
	c.learnMu.Lock()
	defer c.learnMu.Unlock()
	var wg sync.WaitGroup
	for _, ws := range c.workers {
		if (ws.slots.Load() > 0 && !ws.relearn.Load()) || !ws.br.closed() {
			continue
		}
		ws.relearn.Store(false)
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, ok := c.probe(ctx, ws)
			if !ok {
				ws.relearn.Store(true)
				if ctx.Err() == nil {
					ws.failed(c.clock.now())
				}
				return
			}
			c.resize(ws, min(max(st.Slots, 1), maxWorkerCredit))
		}()
	}
	wg.Wait()
	total := 0
	for _, ws := range c.workers {
		total += max(int(ws.slots.Load()), 1)
	}
	return total
}

// resize sets ws's credit to n tokens: new tokens go into the pool at
// once, first by cancelling surplus not yet retired; tokens beyond n
// become surplus and leave the pool as they are drawn or come back, so
// a worker never drops below one token.
func (c *Coordinator) resize(ws *workerState, n int) {
	old := max(int(ws.slots.Load()), 1)
	if n < old {
		ws.surplus.Add(int32(old - n))
	}
	for grow := n - old; grow > 0; grow-- {
		if !ws.retire() {
			c.tokens <- ws
		}
	}
	ws.slots.Store(int32(n))
}

// release returns ws's token to the pool, unless it is surplus.
func (c *Coordinator) release(ws *workerState) {
	if ws.surplus.Load() > 0 && ws.retire() {
		return
	}
	c.tokens <- ws
}

// A dispatch carries up to maxBatch queued units of one Runner, which
// the worker verifies in order on one slot. It takes at most
// ⌈queued ÷ credit⌉ of them, so every token has a share of the queue,
// and more than one only while the Runner's last dispatch completed and
// its worker stated under cheapUnit of time per unit: the hop then costs
// more than the unit. A Runner's first dispatches, and every one after
// an expensive unit or a failed dispatch, carry one unit. cheapUnit is
// set from the hop's cost (about 0.1 ms of CPU for a unit sent alone on
// loopback) with margin; no workload of expensive units has measured
// it yet.
const (
	maxBatch  = 16
	cheapUnit = time.Millisecond
)

// remote is the fleet as an engine.Engine: Verify runs one scenario on
// whichever worker has credit, and on the wrapped engine here when the
// fleet cannot. It decides where local runs, never what it computes, so
// Unwrap lets engine.CacheKey address the verdict as local's.
type remote struct {
	c     *Coordinator
	local engine.Engine
	// spec is engine.EncodeEngineSpec(local), encoded once per Runner
	// and kept as a string so remote stays comparable; empty for a
	// custom engine, which has none.
	spec string
	q    *queue
}

func (r remote) Name() string          { return r.local.Name() }
func (r remote) Unwrap() engine.Engine { return r.local }

// Verify is VerifyEncoded for a caller that holds no encoding of s.
func (r remote) Verify(ctx context.Context, s engine.Scenario) engine.Result {
	return r.VerifyEncoded(ctx, s, nil)
}

// VerifyEncoded dispatches s as one work unit, retrying with backoff on
// whichever worker has credit next. At the attempt cap the unit is
// verified locally, so fleet-wide failure degrades to single-process
// verification instead of a lost sweep. canonical is s's canonical
// encoding with the name blanked, which engine.VerifyCached hands over
// when it holds it (nil is encoded here): the unit is spliced around
// those bytes instead of encoding the scenario again. Every attempt is
// the unit's own, whether it travelled alone or in a batch.
func (r remote) VerifyEncoded(ctx context.Context, s engine.Scenario, canonical []byte) engine.Result {
	c := r.c
	if r.spec != "" && canonical == nil {
		unnamed := s
		unnamed.Name = ""
		canonical, _ = engine.EncodeScenario(&unnamed)
	}
	if r.spec == "" || canonical == nil {
		// Not dispatchable — a custom engine has no spec, and an
		// ill-formed scenario no document: verify on the coordinator,
		// like the Runner would (local reports the ill-formed one).
		c.localFallbacks.Add(1)
		return r.q.verifyLocal(ctx, r.local, s)
	}
	u := &unit{index: int(c.units.Add(1)), done: make(chan struct{}, 1)}
	u.body = engine.AssembleWorkUnit(u.index, r.spec, s.Name, canonical)
	for attempt := 1; ; attempt++ {
		r.q.carry(ctx, u)
		switch {
		case u.err == nil:
			return u.res
		case u.stopped:
			return c.unrun(&s, u.err)
		case ctx.Err() != nil:
			return c.unrun(&s, ctx.Err())
		case attempt >= maxAttempts:
			c.localFallbacks.Add(1)
			return r.q.verifyLocal(ctx, r.local, s)
		}
		c.retries.Add(1)
		// A worker's Retry-After can stretch the backoff, never past
		// the same cap.
		if err := c.sleep(ctx, max(capped(backoffBase, attempt-1), u.retryAfter)); err != nil {
			return c.unrun(&s, err)
		}
	}
}

// unit is one scenario's work unit and the outcome of its latest
// attempt, which the dispatch that carried it sets before done.
type unit struct {
	index int
	body  []byte
	done  chan struct{}

	res        engine.Result
	retryAfter time.Duration
	err        error
	// stopped marks an attempt that never started: the coordinator is
	// draining, or the unit's context ended while it waited for credit.
	stopped bool
}

// finish gives u the outcome of its attempt.
func (u *unit) finish(res engine.Result, retryAfter time.Duration, err error, stopped bool) {
	u.res, u.retryAfter, u.err, u.stopped = res, retryAfter, err, stopped
	u.done <- struct{}{}
}

// queue holds one Runner's units waiting for dispatch credit, in one
// lane per context: a dispatch runs under its units' context, so units
// of different Run calls never share one.
type queue struct {
	c *Coordinator
	// credit is the fleet's credit when the Runner was made: the most
	// carriers a lane has, and the divisor of a dispatch's share.
	credit int
	// cost is the worker time per unit, in nanoseconds, that the worker
	// stated for the Runner's last dispatch; -1 until one completes,
	// after one fails, and when it states none.
	cost atomic.Int64
	// local bounds the Runner's verifications on the coordinator to its
	// credit: the pool is wide for units to queue in, not to run here.
	local chan struct{}

	mu    sync.Mutex
	lanes map[context.Context]*lane
}

// lane is one context's queued units and the number of carriers working
// them off.
type lane struct {
	units    []*unit
	carriers int
}

// carry queues u and returns once it has the outcome of one attempt.
// A lane's units are dispatched by its carriers, up to credit
// goroutines that each take a token, send the next share of the lane on
// it and give the token back, until the lane is empty; queuing a unit
// starts one if the lane has fewer. So a unit's caller waits only for
// its own outcome. Carriers are counted under q.mu, where a unit is
// queued and where a carrier stops on an empty lane: a unit queued as
// the last carrier stops finds the lane one short, and starts another.
func (q *queue) carry(ctx context.Context, u *unit) {
	q.mu.Lock()
	l := q.lanes[ctx]
	if l == nil {
		l = &lane{}
		q.lanes[ctx] = l
	}
	l.units = append(l.units, u)
	if l.carriers < q.credit {
		l.carriers++
		go q.work(ctx, l)
	}
	q.mu.Unlock()
	<-u.done
}

// work is one carrier of l: it sends shares of the lane until none is
// left, returning each token between dispatches so that batches of
// other Runners waiting for credit get their turn. When no token can be
// had — the coordinator is draining, or the lane's context ended —
// every unit still queued is stopped with that error.
func (q *queue) work(ctx context.Context, l *lane) {
	for {
		q.mu.Lock()
		if len(l.units) == 0 {
			q.leave(ctx, l)
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
		ws, err := q.c.acquire(ctx)
		q.mu.Lock()
		n := len(l.units) // a stop takes every unit queued
		if err == nil {
			n = q.share(n)
		}
		batch := l.units[:n:n]
		l.units = l.units[n:]
		if err != nil || n == 0 {
			q.leave(ctx, l)
		}
		q.mu.Unlock()
		if err != nil {
			for _, u := range batch {
				u.finish(engine.Result{}, 0, err, true)
			}
			return
		}
		if len(batch) == 0 {
			q.c.release(ws)
			return
		}
		q.send(ctx, ws, batch)
	}
}

// leave records that one of l's carriers stopped, and forgets the lane
// once it has neither units nor carriers. q.mu is held.
func (q *queue) leave(ctx context.Context, l *lane) {
	if l.carriers--; l.carriers == 0 && len(l.units) == 0 {
		delete(q.lanes, ctx)
	}
}

// share is how many of queued units the next dispatch carries.
func (q *queue) share(queued int) int {
	if cost := q.cost.Load(); cost < 0 || cost >= int64(cheapUnit) {
		return min(queued, 1)
	}
	return min(queued, maxBatch, (queued+q.credit-1)/q.credit)
}

// send makes one attempt at batch on ws, gives the token back, and
// gives every unit its outcome: its own result, or the dispatch's one
// error. A failed dispatch says nothing of its units' cost, and may
// have failed because of it: the Runner's dispatches carry one unit
// again until one completes.
func (q *queue) send(ctx context.Context, ws *workerState, batch []*unit) {
	results, cost, retryAfter, err := q.c.try(ctx, ws, batch)
	q.c.release(ws)
	q.cost.Store(cost)
	for i, u := range batch {
		var res engine.Result
		if err == nil {
			res = results[i]
		}
		u.finish(res, retryAfter, err, false)
	}
}

// verifyLocal verifies s on the coordinator, at most credit at a time.
func (q *queue) verifyLocal(ctx context.Context, eng engine.Engine, s engine.Scenario) engine.Result {
	q.local <- struct{}{}
	defer func() { <-q.local }()
	return eng.Verify(ctx, s)
}

// acquire takes one token from the fleet's credit, retiring any
// surplus token it draws. A stop is checked first because select picks
// at random among ready cases: a quiesced coordinator must not start a
// dispatch because a token was free too.
func (c *Coordinator) acquire(ctx context.Context) (*workerState, error) {
	select {
	case <-c.quiesce:
		return nil, ErrDraining
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	select {
	case <-c.quiesce:
		return nil, ErrDraining
	case <-ctx.Done():
		return nil, ctx.Err()
	case ws := <-c.tokens:
		if ws.retire() {
			// A surplus token carries no dispatch: it leaves the pool
			// here, and the next one is drawn.
			return c.acquire(ctx)
		}
		return ws, nil
	}
}

// sleep waits out a retry delay, holding no token.
func (c *Coordinator) sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-c.quiesce:
		return ErrDraining
	case <-ctx.Done():
		return ctx.Err()
	case <-c.clock.after(d):
		return nil
	}
}

// unrun reports a unit that got no verdict — the batch was cancelled
// or the coordinator is draining — as inconclusive, never dropped.
func (c *Coordinator) unrun(s *engine.Scenario, err error) engine.Result {
	if errors.Is(err, ErrDraining) {
		c.drained.Add(1)
	}
	return engine.Result{Index: -1, Scenario: s.Name, Engine: "fleet", Status: engine.StatusInconclusive, Err: err}
}

// errBreakerOpen is try's error for a fast-failed attempt.
var errBreakerOpen = errors.New("fleet: circuit breaker open")

// try makes one attempt at batch on ws and folds its outcome into the
// worker's health: a result per unit and their cost (dispatch), or an
// error with the worker's Retry-After hint.
func (c *Coordinator) try(ctx context.Context, ws *workerState, batch []*unit) (results []engine.Result, cost int64, retryAfter time.Duration, err error) {
	if !ws.br.allow(c.clock.now()) {
		// Open breaker: fail fast without an HTTP round trip. The
		// fast-fail still consumes each unit's attempt — the attempt cap
		// (local fallback), not the breaker, is what guarantees progress
		// when every worker is sick.
		c.breakerFastFails.Add(1)
		return nil, -1, 0, errBreakerOpen
	}
	results, cost, rejected, retryAfter, err := c.dispatch(ctx, ws, batch)
	switch {
	case err == nil:
		ws.br.onSuccess()
		ws.completed.Add(uint64(len(batch)))
		c.completed.Add(uint64(len(batch)))
	case ctx.Err() != nil:
		// The dispatch failed because the batch is over, not because
		// the worker is sick.
		ws.br.onAbandoned()
	case rejected:
		// Admission, not failure: a 429 proves the worker is alive, so
		// it does not dent health or the breaker. It does prove the
		// worker admits fewer requests than its credit, so the next
		// batch asks it for its slots again.
		ws.br.onRejected()
		ws.relearn.Store(true)
		c.rejections.Add(1)
	default:
		ws.failed(c.clock.now())
	}
	return results, cost, retryAfter, err
}

// dispatch posts batch to one worker, one unit per line. rejected
// reports a 429 — admission, not failure — which does not dent the
// worker's health; retryAfter carries the worker's clamped Retry-After
// hint with it. The remaining deadline budget travels in
// X-Fleet-Deadline-Ms so the worker's engine context expires with the
// coordinator's interest, and the response body is checked against the
// worker's X-Fleet-Checksum — a response corrupted in transit, or sent
// without one, could otherwise read as plausible but wrong results.
// cost is the worker's X-Fleet-Work-Ns per unit; -1, for one-unit
// dispatches, on a failure or a value that is not a count of
// nanoseconds. The checksum does not cover it: a wrong or lying value
// can steer only the size of the Runner's next dispatch, never a verdict.
func (c *Coordinator) dispatch(ctx context.Context, ws *workerState, batch []*unit) (results []engine.Result, cost int64, rejected bool, retryAfter time.Duration, err error) {
	c.dispatches.Add(1)
	dctx, cancel := context.WithTimeout(ctx, c.opts.UnitTimeout*time.Duration(len(batch)))
	defer cancel()
	body := batch[0].body
	if len(batch) > 1 {
		var b bytes.Buffer
		for _, u := range batch {
			b.Write(u.body)
			b.WriteByte('\n')
		}
		body = b.Bytes()
	}
	req, err := http.NewRequestWithContext(dctx, http.MethodPost, ws.url+"/fleet/work", bytes.NewReader(body))
	if err != nil {
		return nil, -1, false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	dl, _ := dctx.Deadline()
	req.Header.Set(deadlineHeader, strconv.FormatInt(max(time.Until(dl).Milliseconds(), 1), 10))
	resp, reply, err := c.roundTrip(req)
	if err != nil {
		return nil, -1, false, 0, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return nil, -1, true, parseRetryAfter(resp.Header.Get("Retry-After")),
			fmt.Errorf("fleet: worker %s at capacity", ws.url)
	default:
		return nil, -1, false, 0, fmt.Errorf("fleet: worker %s: status %d: %s", ws.url, resp.StatusCode, bytes.TrimSpace(reply))
	}
	if err = engine.CheckDigest(resp.Header.Get(resultChecksumHeader), reply); err == nil {
		results, err = readReply(reply, batch)
	}
	if err != nil {
		return nil, -1, false, 0, fmt.Errorf("fleet: worker %s: %w", ws.url, err)
	}
	cost = -1
	if ns, err := strconv.ParseInt(resp.Header.Get(workHeader), 10, 64); err == nil && ns >= 0 {
		cost = ns / int64(len(batch))
	}
	return results, cost, false, 0, nil
}

// readReply reads a worker's answer to batch: one result line per unit,
// in the batch's order, each ending in a newline and echoing its unit's
// index. Anything else fails the whole batch, so no unit gets a result
// from another unit's line, and none gets one while another gets an
// error. engine.DecodeResult keeps each line as its Result's encoding.
// Like any Engine.Verify result, each carries no batch position: the
// echo has done its job, and the Runner assigns it.
func readReply(reply []byte, batch []*unit) ([]engine.Result, error) {
	results := make([]engine.Result, len(batch))
	for i, u := range batch {
		line, rest, ok := bytes.Cut(reply, []byte("\n"))
		if !ok {
			return nil, fmt.Errorf("%d result lines for %d units", i, len(batch))
		}
		res, err := engine.DecodeResult(line)
		if err != nil {
			return nil, err
		}
		if res.Index != u.index {
			return nil, fmt.Errorf("answered unit %d with unit %d", u.index, res.Index)
		}
		res.Index = -1
		results[i] = res
		reply = rest
	}
	if len(reply) != 0 {
		return nil, fmt.Errorf("more than %d result lines for %d units", len(batch), len(batch))
	}
	return results, nil
}

// parseRetryAfter reads an integer-seconds Retry-After value, clamped
// to maxDelay: a hostile or confused 9999 must not stall the sweep.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs <= 0 {
		return 0
	}
	// Clamped before the multiply: a huge value must not overflow.
	return time.Duration(min(secs, int(maxDelay/time.Second))) * time.Second
}

// roundTrip sends one request to a worker and reads its whole reply.
func (c *Coordinator) roundTrip(req *http.Request) (*http.Response, []byte, error) {
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, engine.MaxResultBytes))
	return resp, body, err
}

// deadlineHeader carries the dispatch's remaining deadline budget in
// milliseconds; the worker derives its engine context from it so a
// verification the coordinator has given up on stops burning worker
// CPU.
const deadlineHeader = "X-Fleet-Deadline-Ms"

// workHeader carries the nanoseconds the worker spent verifying a
// dispatch's units, from which the Runner's next dispatch is sized.
const workHeader = "X-Fleet-Work-Ns"

// resultChecksumHeader carries the body digest (engine.Digest) of the
// worker's response; the coordinator rejects a missing or mismatching
// one as a dispatch failure (and retries) instead of decoding the
// bytes.
const resultChecksumHeader = "X-Fleet-Checksum"

// probe reads one worker's /fleet/health document; ok is false when
// the worker cannot be asked or does not answer with one.
func (c *Coordinator) probe(ctx context.Context, ws *workerState) (st WorkerStats, ok bool) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ws.url+"/fleet/health", nil)
	if err != nil {
		return st, false
	}
	resp, body, err := c.roundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return st, false
	}
	ok = json.Unmarshal(body, &st) == nil
	return st, ok
}

// Health probes every worker once and returns the fleet view; it is
// the coordinator-side liveness check ops endpoints expose.
func (c *Coordinator) Health(ctx context.Context) []WorkerStatus {
	out := make([]WorkerStatus, len(c.workers))
	var wg sync.WaitGroup
	for i, ws := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, ok := c.probe(ctx, ws)
			out[i] = ws.status(ok)
		}()
	}
	wg.Wait()
	return out
}
