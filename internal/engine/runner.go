package engine

import (
	"context"
	"sort"
	"time"

	"repro/internal/explore"
)

// RunnerOptions configures a batch runner.
type RunnerOptions struct {
	// Workers is the size of the scenario worker pool (0 = one per CPU).
	// It schedules whole scenarios; SAT{Workers} adds intra-scenario
	// parallelism (a solver portfolio).
	Workers int
	// Engine runs every scenario; nil defaults to Auto{}, which picks
	// the natural backend per scenario.
	Engine Engine
	// Cache, when non-nil, short-circuits scenarios whose content
	// address (CacheKey: the engine spec plus the canonical scenario
	// encoding) already has a conclusive result: the cached Result is
	// returned with Cached set instead of re-verifying. Fresh conclusive
	// results (holds/violated) are stored back; inconclusive and error
	// results are never cached. An engine without a spec (a user-defined
	// Engine) has no address and runs uncached.
	Cache ResultCache
	// IncrementalSAT shares one SAT session pool across the batch: SAT
	// scenarios whose models share a base (same encoding and scope,
	// differing only in their assert state) reuse one persistent
	// translation and sequential solver, keeping learnt clauses warm
	// across the sweep grid. A
	// portfolio SAT engine solves each scenario one-shot regardless.
	// Verdicts are unchanged; only the effort per variant shrinks.
	IncrementalSAT bool
}

// ResultCache is the Runner's pluggable verification cache, keyed by
// content address. internal/cache provides the standard implementation
// (in-memory LRU with optional on-disk persistence). Implementations
// must be safe for concurrent use by the worker pool.
type ResultCache interface {
	Get(key string) (Result, bool)
	Put(key string, res Result)
}

// Runner schedules verification scenarios over a worker pool. Results
// are deterministic in the scenario set and engines — worker count and
// scheduling order only change wall-clock, never a verdict or the
// aggregated report.
type Runner struct {
	opts RunnerOptions
	// pool backs IncrementalSAT: one session pool shared by every SAT
	// scenario of this runner's batches.
	pool *SessionPool
	// specs encodes each engine's spec, the prefix of its content
	// addresses, once.
	specs specMemo
}

// NewRunner builds a batch runner.
func NewRunner(opts RunnerOptions) *Runner {
	if opts.Engine == nil {
		opts.Engine = Auto{}
	}
	r := &Runner{opts: opts}
	if opts.IncrementalSAT {
		r.pool = NewSessionPool()
	}
	return r
}

// Stream verifies the scenarios on the worker pool and sends each
// Result as soon as it is ready, in completion order; Result.Index maps
// it back to its scenario. The channel closes when the batch is done or
// the context is cancelled (pending scenarios then report
// StatusInconclusive). The consumer must drain the channel.
func (r *Runner) Stream(ctx context.Context, scenarios []Scenario) <-chan Result {
	if ctx == nil {
		ctx = context.Background()
	}
	return Pool(r.opts.Workers, len(scenarios), func(i int) Result {
		return r.runOne(ctx, i, scenarios[i], nil)
	})
}

// ResultLine is a Result with its wire form: Data is EncodeResult of
// Result, or nil with Err set.
type ResultLine struct {
	Result Result
	Data   []byte
	Err    error
}

// StreamSweep is Stream over a decoded sweep, for a caller that writes
// the results out: every cell is addressed in the cache by the canonical
// bytes the sweep carries for it instead of a re-encoding of its
// scenario, and each result arrives already encoded — by the pool
// worker that produced it, so a single consumer only has to write.
func (r *Runner) StreamSweep(ctx context.Context, sw *Sweep) <-chan ResultLine {
	if ctx == nil {
		ctx = context.Background()
	}
	return Pool(r.opts.Workers, sw.Len(), func(i int) ResultLine {
		c := &sw.cells[i]
		line := ResultLine{Result: r.runOne(ctx, i, c.scenario, c.canonical)}
		line.Data, line.Err = EncodeResult(&line.Result)
		return line
	})
}

// runOne verifies scenario i of a batch, consulting the result cache
// when one is configured; canonical is encodeUnnamed(&s) when the caller
// holds it, else nil.
func (r *Runner) runOne(ctx context.Context, i int, s Scenario, canonical []byte) Result {
	if ctx.Err() != nil {
		// The batch was cancelled before this scenario started:
		// report it inconclusive instead of running it.
		return Result{Index: i, Scenario: s.Name, Engine: "runner", Status: StatusInconclusive, Err: ctx.Err()}
	}
	eng := r.opts.Engine
	if r.pool != nil {
		// Resolve Auto here so the pool reaches the SAT adapter it would
		// delegate to; CacheKey performs the same resolution, so content
		// addresses are unaffected.
		if auto, ok := eng.(Auto); ok {
			eng = auto.EngineFor(s)
		}
		if se, ok := eng.(SAT); ok && se.Sessions == nil {
			se.Sessions = r.pool
			eng = se
		}
	}
	res := verifyCached(ctx, eng, s, canonical, r.opts.Cache, &r.specs)
	res.Index = i
	return res
}

// Run verifies the scenarios and returns the results indexed by
// scenario position, plus the aggregated summary — identical output at
// any worker count.
func (r *Runner) Run(ctx context.Context, scenarios []Scenario) ([]Result, Summary) {
	start := time.Now()
	results := make([]Result, len(scenarios))
	for res := range r.Stream(ctx, scenarios) {
		results[res.Index] = res
	}
	sum := Summarize(results)
	sum.Wall = time.Since(start)
	return results, sum
}

// Summary aggregates a batch of results.
type Summary struct {
	Total        int
	Holds        int
	Violated     int
	Inconclusive int
	Errors       int
	// Capped counts results whose run stopped on the MaxStates budget —
	// inconclusive verdicts that a bigger budget (or checkpoint/resume)
	// could decide, as opposed to cancellations.
	Capped int
	// CacheHits counts results served from the Runner's result cache.
	CacheHits int
	// Violations counts dynamic counterexamples by kind.
	Violations map[explore.ViolationKind]int
	// Scenarios lists the names of violated scenarios, sorted.
	Scenarios []string
	// Wall is the batch duration (excluded from determinism guarantees).
	Wall time.Duration
}

// Summarize aggregates results deterministically: the summary depends
// only on the multiset of results, not on completion order.
func Summarize(results []Result) Summary {
	sum := Summary{Total: len(results), Violations: make(map[explore.ViolationKind]int)}
	for _, res := range results {
		if res.Cached {
			sum.CacheHits++
		}
		if res.Stats.Capped {
			sum.Capped++
		}
		switch res.Status {
		case StatusHolds:
			sum.Holds++
		case StatusViolated:
			sum.Violated++
			if res.Violation != explore.ViolationNone {
				sum.Violations[res.Violation]++
			}
			sum.Scenarios = append(sum.Scenarios, res.Scenario)
		case StatusInconclusive:
			sum.Inconclusive++
		case StatusError:
			sum.Errors++
		}
	}
	sort.Strings(sum.Scenarios)
	return sum
}
