package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/fleet"

	// Register the mca-model codec so SAT scenarios decode, as
	// cmd/mcaserved does.
	_ "repro/internal/mcamodel"
)

// span is one timed call into a layer. Spans of one replayed request
// share Request; Parent is the ID of the span that made the call, 0 for
// the request span itself. Times are nanoseconds since the tracer
// began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. The replay is one
// goroutine, so the open spans form a stack. A nil tracer records
// nothing: the untraced replay runs the same code with it.
type tracer struct {
	begin   time.Time
	spans   []span
	open    []int // indices into spans
	request int
}

func newTracer() *tracer { return &tracer{begin: time.Now()} }

// start opens a span and returns the function that closes it. A span
// opened with no other open is a request span and starts a new request.
func (t *tracer) start(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if len(t.open) == 0 {
		t.request++
	} else {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Request: t.request, Name: name, StartNS: int64(time.Since(t.begin))})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].EndNS = int64(time.Since(t.begin))
		t.open = t.open[:len(t.open)-1]
	}
}

// selfNS is each span's self time: its duration minus the part of it
// its child spans cover.
func selfNS(spans []span) []int64 {
	covered := map[int]int64{} // span ID -> time its children cover
	for _, s := range spans {
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNS - s.StartNS - covered[s.ID]
	}
	return self
}

// checkAccounting asserts that, for every request, the self times of
// its spans sum to within 5 % of the request span. Raw self times always
// telescope to the request span; clamped at zero they only do so when no
// span leaks outside its parent or overlaps a sibling.
func checkAccounting(spans []span) error {
	root, sum := map[int]int64{}, map[int]int64{}
	for i, self := range selfNS(spans) {
		s := spans[i]
		if s.Parent == 0 {
			root[s.Request] = s.EndNS - s.StartNS
		}
		sum[s.Request] += max(self, 0)
	}
	for req, total := range root {
		if diff := float64(sum[req]-total) / float64(total); diff > 0.05 || diff < -0.05 {
			return fmt.Errorf("request %d: self times sum to %v of a %v request span", req, time.Duration(sum[req]), time.Duration(total))
		}
	}
	return nil
}

// printSelfTimes prints where the replayed requests spent their time:
// each layer's self time, summed by span name, as a share of the whole.
func printSelfTimes(spans []span) {
	byName, total := map[string]int64{}, int64(0)
	for i, self := range selfNS(spans) {
		byName[spans[i].Name] += self
		total += self
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	fmt.Println("   replay self time by layer:")
	for _, n := range names {
		fmt.Printf("   %-28s %12.3f ms %6.2f %%\n", n, float64(byName[n])/1e6, 100*float64(byName[n])/float64(total))
	}
}

// ---- in-process replay: the public calls the handlers make ----

// replayCell is the per-scenario part of both handlers, the protocol of
// engine.VerifyCached spelled out so each call gets its own span.
func replayCell(t *tracer, eng engine.Engine, s engine.Scenario, c *cache.Cache) ([]byte, engine.Result, error) {
	end := t.start("engine.CacheKey")
	key, err := engine.CacheKey(&s, eng)
	end()
	if err != nil {
		return nil, engine.Result{}, err
	}
	end = t.start("cache.Get")
	res, hit := c.Get(key)
	end()
	if hit {
		res.Scenario, res.Cached = s.Name, true
	} else {
		end = t.start("engine.Verify")
		res = eng.Verify(context.Background(), s)
		end()
		end = t.start("cache.Put")
		c.Put(key, res)
		end()
	}
	end = t.start("engine.EncodeResult")
	data, err := engine.EncodeResult(&res)
	end()
	return data, res, err
}

// replayVerify is handleVerify without the socket.
func replayVerify(t *tracer, body []byte, eng engine.Engine, c *cache.Cache) ([]byte, error) {
	defer t.start("request")()
	end := t.start("engine.DecodeScenario")
	s, err := engine.DecodeScenario(body)
	end()
	if err != nil {
		return nil, err
	}
	data, _, err := replayCell(t, eng, s, c)
	return append(data, '\n'), err
}

// replaySweep is handleSweep without the socket and without the pool:
// cells run one after another so that their spans nest. post, when
// non-nil, replaces the local cell with a fleet dispatch.
func replaySweep(t *tracer, body []byte, c *cache.Cache, post func(*tracer, int, *engine.Scenario) ([]byte, engine.Result, error)) ([]byte, error) {
	defer t.start("request")()
	end := t.start("engine.ExpandSweep")
	scenarios, err := engine.ExpandSweep(body)
	end()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	results := make([]engine.Result, len(scenarios))
	for i := range scenarios {
		endCell := t.start("cell")
		var data []byte
		if post != nil {
			data, results[i], err = post(t, i, &scenarios[i])
		} else {
			data, results[i], err = replayCell(t, engine.Auto{}, scenarios[i], c)
		}
		endCell()
		if err != nil {
			return nil, err
		}
		out.Write(data)
		out.WriteByte('\n')
	}
	end = t.start("engine.EncodeSummary")
	sum := engine.Summarize(results)
	data, err := engine.EncodeSummary(&sum)
	end()
	fmt.Fprintf(&out, `{"summary":%s}`+"\n", data)
	return out.Bytes(), err
}

// fleetPost is one coordinator dispatch without the coordinator: encode
// the work unit, POST it to a worker handler on a loopback listener,
// decode the unit as the worker does and the result as the coordinator
// does.
func fleetPost(workerURL string) func(*tracer, int, *engine.Scenario) ([]byte, engine.Result, error) {
	return func(t *tracer, index int, s *engine.Scenario) ([]byte, engine.Result, error) {
		end := t.start("fleet.EncodeWorkUnit")
		unit, err := fleet.EncodeWorkUnit(index, engine.Auto{}, s)
		end()
		if err != nil {
			return nil, engine.Result{}, err
		}
		end = t.start("fleet.post")
		resp, err := http.Post(workerURL+"/fleet/work", "application/json", bytes.NewReader(unit))
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("worker: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
			}
		}
		end()
		if err != nil {
			return nil, engine.Result{}, err
		}
		end = t.start("fleet.DecodeWorkUnit")
		_, _, _, err = fleet.DecodeWorkUnit(unit)
		end()
		if err != nil {
			return nil, engine.Result{}, err
		}
		end = t.start("engine.DecodeResult")
		res, err := engine.DecodeResult(bytes.TrimSpace(data))
		end()
		return bytes.TrimSpace(data), res, err
	}
}

// replayer binds a workload to its in-process replay: one call is one
// request, checked against the same known answers as a socket reply.
func (b *bench) replayer(w *workload, src *source) (func(*tracer) error, func(), error) {
	c, err := cache.New(cache.Options{})
	if err != nil {
		return nil, nil, err
	}
	stop := func() {}
	var post func(*tracer, int, *engine.Scenario) ([]byte, engine.Result, error)
	if w.fleet {
		srv := httptest.NewServer(fleet.NewWorker(fleet.WorkerOptions{Slots: childProcs}).Handler())
		stop, post = srv.Close, fleetPost(srv.URL)
	}
	hits := 0
	var replayed []byte
	if w.replay > 0 {
		replayed = w.body(src, b.scales)
		if _, err := replaySweep(nil, replayed, c, nil); err != nil {
			stop()
			return nil, nil, err
		}
		hits = expected.Grid.PerScale.Total * b.scales
	}
	var eng engine.Engine // what engineFromQuery makes of the workload's query
	switch w.engine {
	case "explicit":
		eng = engine.Explicit{Workers: w.workers}
	case "sat":
		eng = engine.SAT{Workers: w.workers}
	}
	return func(t *tracer) error {
		body := replayed
		if body == nil {
			body = w.body(src, b.scales)
		}
		var out outcome
		if w.sweep {
			data, err := replaySweep(t, body, c, post)
			if err != nil {
				return err
			}
			out = checkSweep(reply{status: http.StatusOK, body: data}, b.scales, hits)
		} else {
			data, err := replayVerify(t, body, eng, c)
			if err != nil {
				return err
			}
			out = checkVerify(reply{status: http.StatusOK, body: data}, w.family)
		}
		return out.err
	}, stop, nil
}

// replayPass replays requests of the workload in-process, alternately
// untraced and traced, for about the given time. It returns the spans
// and the tracing overhead: the traced-minus-untraced difference of the
// median request, as a percentage of the untraced median.
func (b *bench) replayPass(w *workload, src *source, seconds float64) (spans []span, overheadPct float64, requests int, err error) {
	replay, stop, err := b.replayer(w, src)
	if err != nil {
		return nil, 0, 0, err
	}
	defer stop()
	t := newTracer()
	var plain, traced []float64
	begin := time.Now()
	for len(plain) < b.minOps || time.Since(begin).Seconds() < seconds {
		start := time.Now()
		if err := replay(nil); err != nil {
			return nil, 0, 0, fmt.Errorf("%s: untraced replay: %v", w.name, err)
		}
		plain = append(plain, time.Since(start).Seconds())
		start = time.Now()
		if err := replay(t); err != nil {
			return nil, 0, 0, fmt.Errorf("%s: traced replay: %v", w.name, err)
		}
		traced = append(traced, time.Since(start).Seconds())
	}
	if err := checkAccounting(t.spans); err != nil {
		return nil, 0, 0, fmt.Errorf("%s: %v", w.name, err)
	}
	return t.spans, 100 * (median(traced) - median(plain)) / median(plain), len(plain) + len(traced), nil
}

// runTraced is the traced run of one workload: a short socket pass for
// what only the running server can report (its overhead over the
// reply's own wall time, first line, resident set, cache and fleet
// counters), the in-process replay with spans, and the layer probes.
// Its metrics are every per-layer metric of BENCHMARK.json.
func (b *bench) runTraced(w *workload, seed int64) (record, error) {
	defer b.rig.stopAll()
	src := newSource(seed)
	in, err := b.rig.setUp(w, src, b.scales)
	if err != nil {
		return record{}, err
	}
	outs, cs, fs, err := b.measure(in, b.seconds/3)
	if err != nil {
		return record{}, err
	}
	good, failed := split(outs)
	if len(good) == 0 {
		return record{}, fmt.Errorf("%s: every operation of the socket pass failed", w.name)
	}
	m, err := in.serverMetrics(good, cs, fs)
	if err != nil {
		return record{}, err
	}
	b.rig.stopAll()

	spans, overhead, replays, err := b.replayPass(w, src, b.seconds/4)
	if err != nil {
		return record{}, err
	}
	printSelfTimes(spans)
	if b.keepSpans {
		path := filepath.Join(b.rig.dir, "spans-"+w.name+".json")
		if err := writeJSON(path, spans); err != nil {
			return record{}, err
		}
	}
	m["bench.trace_overhead_pct"] = metric{overhead, "%"}
	m["bench.build_s"] = metric{b.buildTime.Seconds(), unitSeconds}
	m["bench.failed_share"] = metric{float64(failed) / float64(len(outs)), "share"}

	layers, err := b.layerProbes()
	if err != nil {
		return record{}, err
	}
	for name, v := range layers {
		m[name] = v
	}
	return record{
		Workload: w.name, Seed: seed, Trace: 1, Attempted: len(outs) + replays, Failed: failed,
		Correct: failed == 0, Metrics: m,
	}, nil
}

// serverMetrics are the per-layer numbers only the running children can
// give, for this workload.
func (in *instance) serverMetrics(good []outcome, cs cacheStats, fs fleetStats) (map[string]metric, error) {
	var overhead, first, size []float64
	for _, o := range good {
		overhead = append(overhead, millis(o.latency-o.serverWall))
		first = append(first, millis(o.firstLine))
		size = append(size, float64(o.bytes))
	}
	rss, shed := 0.0, 0.0
	for _, c := range in.children {
		mb, err := c.peakRSSMB()
		if err != nil {
			return nil, err
		}
		n, err := c.shedTotal()
		if err != nil {
			return nil, err
		}
		rss, shed = rss+mb, shed+n
	}
	retryRatio := 0.0
	if fs.Dispatches > 0 {
		retryRatio = float64(fs.Retries) / float64(fs.Dispatches)
	}
	return map[string]metric{
		"mcaserved.latency_p90_ms": {percentile(latencies(good), 0.90), unitMillis},
		"mcaserved.overhead_ms":    {median(overhead), unitMillis},
		"mcaserved.first_line_ms":  {median(first), unitMillis},
		"mcaserved.response_bytes": {median(size), "bytes"},
		"mcaserved.peak_rss_mb":    {rss, "MB"},
		"mcaserved.ready_ms":       {millis(in.bringUp), unitMillis},
		"mcaserved.shed_total":     {shed, "count"},
		"cache.hit_ratio":          {cs.hitRatio(), "share"},
		"cache.evictions":          {float64(cs.Evictions), "count"},
		"fleet.dispatches":         {float64(fs.Dispatches), "count"},
		"fleet.retries":            {float64(fs.Retries), "count"},
		"fleet.rejections":         {float64(fs.Rejections), "count"},
		"fleet.local_fallbacks":    {float64(fs.LocalFallbacks), "count"},
		"fleet.retry_ratio":        {retryRatio, "share"},
	}, nil
}

func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit is the HEAD of the git repository whose root is the current
// directory, or "unknown" when there is none. The ceiling keeps git from
// looking above the checkout.
func commit() string {
	cwd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
