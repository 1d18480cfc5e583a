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
	// UnitTimeout bounds one dispatch round trip including the remote
	// verification (default 2m). The remaining budget travels with the
	// request (X-Fleet-Deadline-Ms), so the worker's engine context
	// expires with the coordinator's interest in the answer. A unit
	// that times out is re-dispatched.
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
	// relearn is set by a 429: the worker admits fewer units than its
	// credit (it restarted with fewer slots), so the next learnCredit asks
	// it again.
	relearn atomic.Bool
	// surplus counts tokens beyond slots still in the pool after a
	// relearned limit came back lower; each leaves the pool when it is
	// next returned.
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
	// Dispatches counts HTTP dispatch attempts; Completed units that
	// came back from a worker; Retries re-dispatches after a failure or
	// rejection; Rejections 429 responses from saturated workers.
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
	// circuit breaker instead of an HTTP round trip.
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

	// tokens is the fleet's dispatch credit: one per unit a worker admits
	// concurrently, held for the dispatch's round trip, so a healthy
	// fleet is never over-offered however many batches are in flight.
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
// worker instead of here. Results and summary are therefore
// byte-identical (wall aside) to a single-process Runner over the same
// scenarios and eng, at any worker count and under any failure/retry
// interleaving. The pool is as wide as the fleet's credit, which Runner
// first learns from any worker that has not yet said.
func (c *Coordinator) Runner(ctx context.Context, eng engine.Engine) *engine.Runner {
	if eng == nil {
		eng = engine.Auto{}
	}
	// A custom engine has no spec: its units all run here.
	spec, _ := engine.EncodeEngineSpec(eng)
	return engine.NewRunner(engine.RunnerOptions{
		Workers: c.learnCredit(ctx),
		Engine:  remote{c: c, local: eng, spec: string(spec)},
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
// become surplus and leave the pool as they come back, so a worker never
// drops below one token.
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
// those bytes instead of encoding the scenario again.
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
		return r.local.Verify(ctx, s)
	}
	index := int(c.units.Add(1))
	unit := engine.AssembleWorkUnit(index, r.spec, s.Name, canonical)
	for attempt := 1; ; attempt++ {
		ws, err := c.acquire(ctx)
		if err != nil {
			return c.unrun(&s, err)
		}
		res, retryAfter, err := c.try(ctx, ws, index, unit)
		c.release(ws)
		if err == nil {
			return res
		}
		if ctx.Err() != nil {
			return c.unrun(&s, ctx.Err())
		}
		if attempt >= maxAttempts {
			c.localFallbacks.Add(1)
			return r.local.Verify(ctx, s)
		}
		c.retries.Add(1)
		// A worker's Retry-After can stretch the backoff, never past
		// the same cap.
		if err := c.sleep(ctx, max(capped(backoffBase, attempt-1), retryAfter)); err != nil {
			return c.unrun(&s, err)
		}
	}
}

// acquire takes one token from the fleet's credit. A stop is checked
// first because select picks at random among ready cases: a quiesced
// coordinator must not start a dispatch because a token was free too.
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

// try makes one attempt on ws and folds its outcome into the worker's
// health: a result, or an error with the worker's Retry-After hint.
func (c *Coordinator) try(ctx context.Context, ws *workerState, index int, unit []byte) (engine.Result, time.Duration, error) {
	if !ws.br.allow(c.clock.now()) {
		// Open breaker: fail fast without an HTTP round trip. The
		// fast-fail still consumes an attempt — the attempt cap (local
		// fallback), not the breaker, is what guarantees progress when
		// every worker is sick.
		c.breakerFastFails.Add(1)
		return engine.Result{}, 0, errBreakerOpen
	}
	res, rejected, retryAfter, err := c.dispatch(ctx, ws, index, unit)
	switch {
	case err == nil:
		ws.br.onSuccess()
		ws.completed.Add(1)
		c.completed.Add(1)
	case ctx.Err() != nil:
		// The dispatch failed because the batch is over, not because
		// the worker is sick.
		ws.br.onAbandoned()
	case rejected:
		// Admission, not failure: a 429 proves the worker is alive, so
		// it does not dent health or the breaker. It does prove the
		// worker admits fewer units than its credit, so the next batch
		// asks it for its slots again.
		ws.br.onRejected()
		ws.relearn.Store(true)
		c.rejections.Add(1)
	default:
		ws.failed(c.clock.now())
	}
	return res, retryAfter, err
}

// dispatch posts one unit to one worker. rejected reports a 429 —
// admission, not failure — which does not dent the worker's health;
// retryAfter carries the worker's clamped Retry-After hint with it.
// The remaining deadline budget travels in X-Fleet-Deadline-Ms so the
// worker's engine context expires with the coordinator's interest, and
// the response body is checked against the worker's X-Fleet-Checksum —
// a response corrupted in transit, or sent without one, could otherwise
// decode into a plausible but wrong Result.
func (c *Coordinator) dispatch(ctx context.Context, ws *workerState, index int, unit []byte) (res engine.Result, rejected bool, retryAfter time.Duration, err error) {
	c.dispatches.Add(1)
	dctx, cancel := context.WithTimeout(ctx, c.opts.UnitTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(dctx, http.MethodPost, ws.url+"/fleet/work", bytes.NewReader(unit))
	if err != nil {
		return engine.Result{}, false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	dl, _ := dctx.Deadline()
	req.Header.Set(deadlineHeader, strconv.FormatInt(max(time.Until(dl).Milliseconds(), 1), 10))
	resp, body, err := c.roundTrip(req)
	if err != nil {
		return engine.Result{}, false, 0, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return engine.Result{}, true, parseRetryAfter(resp.Header.Get("Retry-After")),
			fmt.Errorf("fleet: worker %s at capacity", ws.url)
	default:
		return engine.Result{}, false, 0, fmt.Errorf("fleet: worker %s: status %d: %s", ws.url, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err = engine.CheckDigest(resp.Header.Get(resultChecksumHeader), body); err == nil {
		res, err = engine.DecodeResult(body)
	}
	if err != nil {
		return engine.Result{}, false, 0, fmt.Errorf("fleet: worker %s: %w", ws.url, err)
	}
	if res.Index != index {
		return engine.Result{}, false, 0, fmt.Errorf("fleet: worker %s answered unit %d with unit %d", ws.url, index, res.Index)
	}
	// The echo has done its job; like any Engine.Verify, the result
	// carries no batch position — the Runner assigns that.
	res.Index = -1
	return res, false, 0, nil
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
