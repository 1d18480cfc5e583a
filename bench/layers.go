package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/portfolio"
	"repro/internal/relalg"
	"repro/internal/sat"
)

// The layer probes time the public functions of each layer in-process,
// from outside the layer, on the benchmark's own scenario families.
// They do not depend on the workload or on the seed, so the same metric
// means the same thing in every traced run. Every probe also checks the
// answer it gets: a layer that got faster by getting wrong fails the
// run.

// probes collects the metrics and the first failed check.
type probes struct {
	m   map[string]metric
	err error
}

func (p *probes) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }
func (p *probes) us(name string, d time.Duration) {
	p.set(name, float64(d)/float64(time.Microsecond), "us")
}
func (p *probes) ms(name string, d time.Duration) { p.set(name, millis(d), unitMillis) }

func (p *probes) check(ok bool, format string, args ...any) {
	if !ok && p.err == nil {
		p.err = fmt.Errorf("layer probe: "+format, args...)
	}
}

// medianOf is the median wall time of reps calls of f.
func medianOf(reps int, f func()) time.Duration {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		f()
		xs[i] = float64(time.Since(start))
	}
	return time.Duration(median(xs))
}

// perCall is the time of one call of a microsecond-scale f: the median
// over five batches of n calls, divided by n.
func perCall(n int, f func(i int)) time.Duration {
	return medianOf(5, func() {
		for i := 0; i < n; i++ {
			f(i)
		}
	}) / time.Duration(n)
}

// allocMB is what one call of f allocates.
func allocMB(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// layerProbes runs every probe once per process and keeps the result.
func (b *bench) layerProbes() (map[string]metric, error) {
	if b.layers != nil {
		return b.layers, nil
	}
	p := &probes{m: map[string]metric{}}
	scenarios, err := engine.ExpandSweep(probeGrid(b.scales))
	if err != nil {
		return nil, err
	}
	p.engine(scenarios, b.scales)
	p.cache(scenarios, b.rig.dir)
	p.explore(b.rig.dir)
	p.protocol(scenarios)
	p.relational()
	p.fleet(scenarios)
	if p.err != nil {
		return nil, p.err
	}
	b.layers = p.m
	return p.m, nil
}

// probeGrid is the sweep document of the probes: the workloads' grid at
// fixed scale factors.
func probeGrid(scales int) []byte {
	s := make([]int64, scales)
	for i := range s {
		s[i] = int64(4 * (i + 1))
	}
	return grid(s)
}

// sameTotals reports whether an in-process summary of a grid of the
// given scales matches the known answer.
func sameTotals(sum engine.Summary, scales int) bool {
	want := expected.Grid.PerScale.times(scales)
	return sum.Total == want.Total && sum.Holds == want.Holds && sum.Violated == want.Violated &&
		sum.Violations[explore.ViolationOscillation] == want.Violations["oscillation"] &&
		sum.Inconclusive == 0 && sum.Errors == 0
}

// engine: the codec, the content address, the cached-verify protocol and
// the Runner fold.
func (p *probes) engine(scenarios []engine.Scenario, scales int) {
	ctx := context.Background()
	ringDoc, gridDoc := ring3(4), probeGrid(scales)
	ring, err := engine.DecodeScenario(ringDoc)
	p.check(err == nil, "DecodeScenario: %v", err)
	p.us("engine.decode_scenario_us", perCall(200, func(int) { engine.DecodeScenario(ringDoc) }))
	p.ms("engine.expand_sweep_ms", medianOf(5, func() { engine.ExpandSweep(gridDoc) }))
	p.us("engine.cache_key_us", perCall(200, func(int) { engine.CacheKey(&ring, engine.Explicit{}) }))

	// scenarios[0] is submodular on a reliable network and holds;
	// scenarios[3] is synergy on a reliable network and oscillates, so
	// its result carries a counterexample trace.
	plain := engine.Auto{}.Verify(ctx, scenarios[0])
	traced := engine.Auto{}.Verify(ctx, scenarios[3])
	p.check(plain.Status == engine.StatusHolds && traced.Violation == explore.ViolationOscillation && traced.Trace != nil,
		"grid cells 0 and 3 gave %v and %v/%v", plain.Status, traced.Status, traced.Violation)
	p.us("engine.encode_result_us", perCall(200, func(int) { engine.EncodeResult(&plain) }))
	p.us("engine.encode_trace_result_us", perCall(200, func(int) { engine.EncodeResult(&traced) }))

	c, err := cache.New(cache.Options{})
	p.check(err == nil, "cache.New: %v", err)
	if err != nil {
		return
	}
	engine.VerifyCached(ctx, engine.Auto{}, scenarios[0], c)
	p.us("engine.verify_cached_hit_us", perCall(200, func(int) {
		res := engine.VerifyCached(ctx, engine.Auto{}, scenarios[0], c)
		p.check(res.Cached, "VerifyCached missed a warm cache")
	}))

	for _, workers := range []int{1, 2} {
		r := engine.NewRunner(engine.RunnerOptions{Workers: workers})
		wall := medianOf(3, func() {
			_, sum := r.Run(ctx, scenarios)
			p.check(sameTotals(sum, scales), "Runner workers=%d summary %+v", workers, sum)
		})
		p.set(fmt.Sprintf("engine.runner_w%d_cells_per_s", workers), float64(len(scenarios))/wall.Seconds(), "cells/s")
	}
	r := engine.NewRunner(engine.RunnerOptions{Workers: 1})
	p.set("engine.runner_alloc_kb_per_cell", 1024*allocMB(func() { r.Run(ctx, scenarios) })/float64(len(scenarios)), "KB")
}

// cache: each tier's Get and Put, timed through the public Cache.
func (p *probes) cache(scenarios []engine.Scenario, dir string) {
	ctx := context.Background()
	n := min(len(scenarios), 120)
	keys, results := make([]string, n), make([]engine.Result, n)
	for i := range keys {
		var err error
		keys[i], err = engine.CacheKey(&scenarios[i], engine.Auto{})
		p.check(err == nil, "CacheKey: %v", err)
		results[i] = engine.Auto{}.Verify(ctx, scenarios[i])
	}
	fresh := func(o cache.Options) *cache.Cache {
		c, err := cache.New(o)
		p.check(err == nil, "cache.New: %v", err)
		return c
	}
	hit := func(c *cache.Cache, tier string) func(int) {
		return func(i int) {
			_, ok := c.Get(keys[i])
			p.check(ok, "cache %s tier missed key %d", tier, i)
		}
	}

	mem := fresh(cache.Options{})
	p.us("cache.mem_put_us", perCall(n, func(i int) { mem.Put(keys[i], results[i]) }))
	p.us("cache.mem_get_us", perCall(n, hit(mem, "memory")))

	// Disk: every Put writes an envelope file; a Get reaches the disk
	// only from a cache whose memory tier has never seen the key, so
	// each batch reads through a fresh Cache over the same directory.
	diskDir := filepath.Join(dir, "probe-cache")
	defer os.RemoveAll(diskDir)
	disk := fresh(cache.Options{Dir: diskDir})
	p.us("cache.disk_put_us", perCall(n, func(i int) { disk.Put(keys[i], results[i]) }))
	p.us("cache.disk_get_us", medianOf(5, func() {
		get := hit(fresh(cache.Options{Dir: diskDir}), "disk")
		for i := 0; i < n; i++ {
			get(i)
		}
	})/time.Duration(n))

	// Peer: a Get that misses memory is fetched from the peer's
	// HTTPHandler on a loopback listener, again from a fresh Cache.
	peer := httptest.NewServer(cache.HTTPHandler(mem, ""))
	defer peer.Close()
	p.us("cache.peer_get_us", medianOf(5, func() {
		get := hit(fresh(cache.Options{RemoteURL: peer.URL}), "peer")
		for i := 0; i < n; i++ {
			get(i)
		}
	})/time.Duration(n))
}

func agentsOf(s engine.Scenario) []*mca.Agent {
	out := make([]*mca.Agent, len(s.AgentSpecs))
	for i, cfg := range s.AgentSpecs {
		out[i] = mca.MustNewAgent(cfg)
	}
	return out
}

// explore: the serial DFS and the sharded frontier on the tracked
// ring-3 instance, and the out-of-core mechanisms on the smaller star-4
// instance.
func (p *probes) explore(dir string) {
	ring, err := engine.DecodeScenario(ring3(4))
	p.check(err == nil, "DecodeScenario(ring3): %v", err)
	star, err := engine.DecodeScenario(star4(4))
	p.check(err == nil, "DecodeScenario(star4): %v", err)
	if p.err != nil {
		return
	}
	ringStates, starStates := expected.Verify["ring3-flat"].States, expected.Verify["star4-flat"].States
	run := func(name string, want int, check func() explore.Verdict) (time.Duration, float64) {
		var wall time.Duration
		mb := allocMB(func() {
			start := time.Now()
			v := check()
			wall = time.Since(start)
			p.check(v.OK && v.States == want, "%s: OK=%v states=%d, want %d", name, v.OK, v.States, want)
		})
		return wall, mb
	}
	serial, serialMB := run("serial", ringStates, func() explore.Verdict {
		return explore.Check(agentsOf(ring), ring.Graph, ring.Explore)
	})
	w1, w1MB := run("frontier workers=1", ringStates, func() explore.Verdict {
		return explore.CheckParallel(agentsOf(ring), ring.Graph, ring.Explore, 1)
	})
	w2, _ := run("frontier workers=2", ringStates, func() explore.Verdict {
		return explore.CheckParallel(agentsOf(ring), ring.Graph, ring.Explore, 2)
	})
	p.ms("explore.serial_ms", serial)
	p.set("explore.serial_alloc_mb", serialMB, "MB")
	p.ms("explore.frontier_w1_ms", w1)
	p.ms("explore.frontier_w2_ms", w2)
	p.set("explore.frontier_alloc_mb", w1MB, "MB")
	p.set("explore.w1_over_serial", float64(w1)/float64(serial), "ratio")
	p.set("explore.states", float64(ringStates), "count")

	lossy := func(kind explore.StoreKind, bits int) func() explore.Verdict {
		return func() explore.Verdict {
			o := star.Explore
			o.Store, o.StoreBits = kind, bits
			return explore.Check(agentsOf(star), star.Graph, o)
		}
	}
	bitstate, _ := run("bitstate", starStates, lossy(explore.StoreBitstate, 24))
	compact, _ := run("hash-compact", starStates, lossy(explore.StoreHashCompact, 18))
	p.ms("explore.bitstate_ms", bitstate)
	p.ms("explore.hashcompact_ms", compact)

	spillDir := filepath.Join(dir, "probe-spill")
	defer os.RemoveAll(spillDir)
	p.check(os.MkdirAll(spillDir, 0o755) == nil, "mkdir %s", spillDir)
	spill, _ := run("spill", starStates, func() explore.Verdict {
		o := star.Explore
		o.SpillDir, o.SpillStates = spillDir, 1<<11
		v := explore.CheckParallel(agentsOf(star), star.Graph, o, 2)
		p.check(v.Store.Spilled > 0, "spill never engaged")
		return v
	})
	p.ms("explore.spill_ms", spill)

	resume, _ := run("checkpoint-resume", starStates, func() explore.Verdict {
		o := star.Explore
		o.MaxStates = starStates / 2
		_, rs, err := explore.CheckParallelFrom(agentsOf(star), star.Graph, o, 2, nil, true)
		p.check(err == nil && rs != nil, "checkpoint: cap leg: %v", err)
		if rs == nil {
			return explore.Verdict{}
		}
		rs, err = explore.DecodeRunState(explore.EncodeRunState(rs))
		p.check(err == nil, "checkpoint: run state round trip: %v", err)
		v, _, err := explore.CheckParallelFrom(agentsOf(star), star.Graph, star.Explore, 2, rs, true)
		p.check(err == nil, "checkpoint: resume leg: %v", err)
		return v
	})
	p.ms("explore.checkpoint_resume_ms", resume)
}

// protocol: one simulated grid cell under message loss, and one
// synchronous auction.
func (p *probes) protocol(scenarios []engine.Scenario) {
	ctx := context.Background()
	lossy := scenarios[1] // submodular, drop 0.25
	deliveries := 0
	const cells = 100
	wall := medianOf(5, func() {
		deliveries = 0
		for i := 0; i < cells; i++ {
			res := engine.Simulation{}.Verify(ctx, lossy)
			p.check(res.Status == engine.StatusViolated, "simulated drop25 cell: %v", res.Status)
			deliveries += res.Stats.Deliveries
		}
	})
	p.us("netsim.simulation_cell_us", wall/cells)
	p.set("netsim.deliveries_per_s", float64(deliveries)/wall.Seconds(), "1/s")

	const n, items = 8, 4
	g := graph.RandomConnected(n, 0.3, n)
	p.us("mca.sync_auction_us", perCall(20, func(int) {
		agents := make([]*mca.Agent, n)
		for ai := range agents {
			base := make([]int64, items)
			for j := range base {
				base[j] = int64(1 + (ai*11+j*7)%23)
			}
			agents[ai] = mca.MustNewAgent(mca.Config{
				ID: mca.AgentID(ai), Items: items, Base: base,
				Policy: mca.Policy{Target: 2, Utility: mca.SubmodularResidual{}, ReleaseOutbid: true, Rebid: mca.RebidOnChange},
			})
		}
		r, err := mca.NewSyncRunner(agents, g)
		p.check(err == nil, "NewSyncRunner: %v", err)
		if err == nil {
			p.check(r.Run(4*mca.MessageBound(g, items)+8).Converged, "synchronous auction did not converge")
		}
	}))
}

// relational: model build, translation and solve at the sat-check
// scope, the incremental and one-shot assert-state sweeps, and the
// solver alone on pigeonhole.
func (p *probes) relational() {
	ctx := context.Background()
	sc := mcamodel.Scope{PNodes: satScope.PNodes, VNodes: satScope.VNodes, Values: satScope.Values,
		States: satScope.States, Msgs: satScope.Msgs, IntBitwidth: satScope.Bitwidth}
	var opt, naive *mcamodel.Encoding
	var err error
	p.ms("mcamodel.build_optimized_ms", medianOf(3, func() { opt, err = mcamodel.BuildOptimized(sc) }))
	p.check(err == nil, "BuildOptimized: %v", err)
	p.ms("mcamodel.build_naive_ms", medianOf(3, func() { naive, err = mcamodel.BuildNaive(sc) }))
	p.check(err == nil, "BuildNaive: %v", err)
	if p.err != nil {
		return
	}
	query := func(e *mcamodel.Encoding) relalg.Formula { return relalg.And(e.Background, relalg.Not(e.Consensus)) }
	var cnf *sat.CNF
	var stats relalg.TranslationStats
	p.ms("relalg.translate_optimized_ms", medianOf(3, func() { cnf, stats = relalg.TranslateToCNF(opt.Bounds, query(opt)) }))
	p.ms("relalg.translate_naive_ms", medianOf(3, func() { relalg.TranslateToCNF(naive.Bounds, query(naive)) }))
	p.set("relalg.clauses", float64(stats.Clauses), "count")
	p.set("relalg.aux_vars", float64(stats.AuxVars), "count")

	var solved sat.Stats
	p.ms("sat.solve_ms", medianOf(3, func() {
		s := sat.NewSolver()
		p.check(cnf.LoadInto(s) == nil, "LoadInto failed")
		p.check(s.Solve() == sat.StatusSat, "consensus query must be satisfiable (a counterexample exists)")
		solved = s.Stats()
	}))
	p.set("sat.conflicts", float64(solved.Conflicts), "count")
	p.ms("portfolio.solve_w2_ms", medianOf(3, func() {
		res := portfolio.SolvePortfolio(cnf, portfolio.Options{Workers: 2})
		p.check(res.Status == sat.StatusSat, "portfolio: %v", res.Status)
	}))

	res := engine.SAT{}.Verify(ctx, engine.Scenario{Name: "probe", Model: opt})
	p.check(res.Status == engine.StatusViolated && res.SATStatus == sat.StatusSat, "SAT engine: %v/%v", res.Status, res.SATStatus)
	p.set("relalg.translate_share", float64(res.Stats.TranslateTime)/float64(res.Stats.TranslateTime+res.Stats.SolveTime), "share")

	var variants []engine.Scenario
	for k := 0; k <= sc.States; k++ {
		v := opt
		if k > 0 {
			v, err = opt.WithAssertState(k)
			p.check(err == nil, "WithAssertState(%d): %v", k, err)
		}
		variants = append(variants, engine.Scenario{Name: fmt.Sprintf("assert_state=%d", k), Model: v})
	}
	for _, mode := range []struct {
		name        string
		incremental bool
	}{{"relalg.oneshot_sweep_ms", false}, {"relalg.incremental_sweep_ms", true}} {
		start := time.Now()
		r := engine.NewRunner(engine.RunnerOptions{Workers: 1, Engine: engine.SAT{}, IncrementalSAT: mode.incremental})
		_, sum := r.Run(ctx, variants)
		p.ms(mode.name, time.Since(start))
		p.check(sum.Errors+sum.Inconclusive == 0, "%s: %+v", mode.name, sum)
	}

	php := sat.PigeonholeCNF(7)
	var props int64
	wall := medianOf(3, func() {
		s := sat.NewSolver()
		p.check(php.LoadInto(s) == nil, "LoadInto failed")
		p.check(s.Solve() == sat.StatusUnsat, "pigeonhole must be unsatisfiable")
		props = s.Stats().Propagations
	})
	p.ms("sat.pigeonhole_ms", wall)
	p.set("sat.props_per_s", float64(props)/wall.Seconds(), "1/s")
}

// fleet: the work-unit codec, one dispatch round trip to a worker whose
// cache already holds the answer, and the whole grid through a
// coordinator and two workers against the same grid on a plain Runner.
func (p *probes) fleet(scenarios []engine.Scenario) {
	ctx := context.Background()
	s := &scenarios[0]
	unit, err := fleet.EncodeWorkUnit(0, engine.Auto{}, s)
	p.check(err == nil, "EncodeWorkUnit: %v", err)
	p.us("fleet.encode_unit_us", perCall(200, func(int) { fleet.EncodeWorkUnit(0, engine.Auto{}, s) }))
	p.us("fleet.decode_unit_us", perCall(200, func(int) { fleet.DecodeWorkUnit(unit) }))

	warm, err := cache.New(cache.Options{})
	p.check(err == nil, "cache.New: %v", err)
	if p.err != nil {
		return
	}
	worker := httptest.NewServer(fleet.NewWorker(fleet.WorkerOptions{Slots: childProcs, Cache: warm}).Handler())
	defer worker.Close()
	p.us("fleet.unit_rtt_us", perCall(100, func(int) {
		resp, err := http.Post(worker.URL+"/fleet/work", "application/json", bytes.NewReader(unit))
		p.check(err == nil, "POST /fleet/work: %v", err)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			p.check(resp.StatusCode == http.StatusOK, "POST /fleet/work: status %d", resp.StatusCode)
		}
	}))

	var urls []string
	for i := 0; i < 2; i++ {
		w := httptest.NewServer(fleet.NewWorker(fleet.WorkerOptions{Slots: childProcs}).Handler())
		defer w.Close()
		urls = append(urls, w.URL)
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls})
	p.check(err == nil, "NewCoordinator: %v", err)
	if err != nil {
		return
	}
	scales := len(scenarios) / expected.Grid.PerScale.Total
	fleetWall := medianOf(3, func() {
		_, sum := coord.Run(ctx, engine.Auto{}, scenarios)
		p.check(sameTotals(sum, scales), "coordinator summary %+v", sum)
	})
	p.check(coord.Stats().LocalFallbacks == 0, "coordinator fell back locally %d times", coord.Stats().LocalFallbacks)
	local := p.m["engine.runner_w2_cells_per_s"].Value
	p.set("fleet.tax", local/(float64(len(scenarios))/fleetWall.Seconds()), "ratio")
}
