package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/fleet"
)

// metrics is a hand-rolled Prometheus-text registry: request counters
// and latency accumulators keyed by a bounded path set, plus shed
// counters for the admission layer. Everything else on /metrics (cache
// tiers, fleet dispatch stats, store occupancy) is collected live from
// the owning component at scrape time, so the registry itself stays
// tiny and lock-cheap.
type metrics struct {
	mu       sync.Mutex
	requests map[[2]string]uint64 // {path, code} -> count
	latNS    map[string]int64     // path -> total latency
	latN     map[string]uint64    // path -> request count
	shed     map[string]uint64    // reason -> count
}

func newMetrics() *metrics {
	return &metrics{
		requests: map[[2]string]uint64{},
		latNS:    map[string]int64{},
		latN:     map[string]uint64{},
		shed:     map[string]uint64{},
	}
}

func (m *metrics) observe(path string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[[2]string{path, strconv.Itoa(code)}]++
	m.latNS[path] += int64(d)
	m.latN[path]++
}

func (m *metrics) shedInc(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shed[reason]++
}

// knownPaths bounds label cardinality: anything outside the served
// endpoint set is folded into "other" so a URL scanner cannot grow the
// registry without limit.
var knownPaths = map[string]bool{
	"/verify": true, "/sweep": true,
	"/cache/stats": true, "/cache/entry/": true,
	"/metrics": true, "/healthz": true,
	"/fleet/work": true, "/fleet/health": true, "/fleet/status": true,
}

func normalizePath(p string) string {
	if strings.HasPrefix(p, "/cache/entry/") {
		return "/cache/entry/"
	}
	if knownPaths[p] {
		return p
	}
	return "other"
}

// statusRecorder captures the response code while preserving the
// Flusher the NDJSON endpoints depend on.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the whole mux with request accounting.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.metrics.observe(normalizePath(r.URL.Path), rec.code, time.Since(start))
	})
}

// promWriter accumulates one metric family at a time and emits samples
// in sorted label order, so the exposition is deterministic.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) family(name, kind, help string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

func (p *promWriter) sample(name, labels string, value interface{}) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	switch v := value.(type) {
	case float64:
		fmt.Fprintf(&p.b, "%s%s %g\n", name, labels, v)
	default:
		fmt.Fprintf(&p.b, "%s%s %d\n", name, labels, v)
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var p promWriter

	s.metrics.mu.Lock()
	p.family("mcaserved_requests_total", "counter", "HTTP requests by path and status code.")
	keys := make([][2]string, 0, len(s.metrics.requests))
	for k := range s.metrics.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		p.sample("mcaserved_requests_total", fmt.Sprintf("path=%q,code=%q", k[0], k[1]), s.metrics.requests[k])
	}
	p.family("mcaserved_request_seconds", "summary", "Request wall time by path.")
	paths := make([]string, 0, len(s.metrics.latN))
	for k := range s.metrics.latN {
		paths = append(paths, k)
	}
	sort.Strings(paths)
	for _, k := range paths {
		p.sample("mcaserved_request_seconds_sum", fmt.Sprintf("path=%q", k), time.Duration(s.metrics.latNS[k]).Seconds())
		p.sample("mcaserved_request_seconds_count", fmt.Sprintf("path=%q", k), s.metrics.latN[k])
	}
	p.family("mcaserved_shed_total", "counter", "Requests rejected by the admission layer, by reason.")
	reasons := make([]string, 0, len(s.metrics.shed))
	for k := range s.metrics.shed {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		p.sample("mcaserved_shed_total", fmt.Sprintf("reason=%q", k), s.metrics.shed[k])
	}
	s.metrics.mu.Unlock()

	if s.cfg.Cache != nil {
		writeCacheMetrics(&p, s.cfg.Cache)
	}
	writeSATMetrics(&p, engine.SATTranslations())
	if s.coord != nil {
		writeCoordinatorMetrics(&p, s.coord.Stats())
	}
	if s.fleetWorker != nil {
		writeWorkerMetrics(&p, s.fleetWorker.Stats())
	}
	if s.cfg.Chaos != nil {
		writeChaosMetrics(&p, s.cfg.Chaos)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, p.b.String())
}

func writeCacheMetrics(p *promWriter, c *cache.Cache) {
	st := c.Stats()
	p.family("mcaserved_cache_operations_total", "counter", "Result cache operations by tier and kind.")
	for _, row := range []struct {
		kind string
		v    uint64
	}{
		{"hit_memory", st.Hits}, {"hit_disk", st.DiskHits}, {"hit_remote", st.RemoteHits},
		{"miss", st.Misses}, {"put", st.Puts}, {"put_remote", st.RemotePuts},
		{"eviction", st.Evictions}, {"error_disk", st.DiskErrors}, {"error_remote", st.RemoteErrors},
		{"corrupt_quarantined", st.CorruptEntries},
	} {
		p.sample("mcaserved_cache_operations_total", fmt.Sprintf("kind=%q", row.kind), row.v)
	}
	p.family("mcaserved_cache_entries", "gauge", "Resident in-memory cache entries.")
	p.sample("mcaserved_cache_entries", "", st.Entries)
	p.family("mcaserved_cache_capacity", "gauge", "In-memory capacity (0 = unbounded).")
	p.sample("mcaserved_cache_capacity", "", max(st.Capacity, 0))
}

// writeSATMetrics exposes how SAT checks came by their CNF: copied from
// the translation the process keeps for the model's family, translated
// and kept, or translated without keeping. The counts are the
// process's, so they include checks that ran as fleet work units.
func writeSATMetrics(p *promWriter, c engine.TranslationCounts) {
	p.family("mcaserved_sat_translations_total", "counter", "SAT check translations by outcome.")
	for _, row := range []struct {
		outcome string
		v       uint64
	}{{"hit", c.Hits}, {"miss", c.Misses}, {"uncached", c.Uncached}} {
		p.sample("mcaserved_sat_translations_total", fmt.Sprintf("outcome=%q", row.outcome), row.v)
	}
}

func writeCoordinatorMetrics(p *promWriter, st fleet.Stats) {
	p.family("mcaserved_fleet_dispatch_total", "counter", "Coordinator dispatch outcomes by kind.")
	for _, row := range []struct {
		kind string
		v    uint64
	}{
		{"dispatch", st.Dispatches}, {"completed", st.Completed}, {"retry", st.Retries},
		{"rejection", st.Rejections}, {"local_fallback", st.LocalFallbacks},
		{"drained", st.Drained}, {"breaker_fast_fail", st.BreakerFastFails},
	} {
		p.sample("mcaserved_fleet_dispatch_total", fmt.Sprintf("kind=%q", row.kind), row.v)
	}
	p.family("mcaserved_fleet_worker_healthy", "gauge", "Per-worker health as seen by the dispatch loop.")
	p.family("mcaserved_fleet_worker_completed_total", "counter", "Units completed per worker.")
	p.family("mcaserved_fleet_worker_breaker", "gauge", "Per-worker circuit breaker state (1 on the current state's row).")
	for _, ws := range st.Workers {
		healthy := 0
		if ws.Healthy {
			healthy = 1
		}
		p.sample("mcaserved_fleet_worker_healthy", fmt.Sprintf("worker=%q", ws.URL), healthy)
		p.sample("mcaserved_fleet_worker_completed_total", fmt.Sprintf("worker=%q", ws.URL), ws.Completed)
		for _, state := range []string{"closed", "half_open", "open"} {
			v := 0
			if ws.Breaker == state {
				v = 1
			}
			p.sample("mcaserved_fleet_worker_breaker", fmt.Sprintf("worker=%q,state=%q", ws.URL, state), v)
		}
	}
}

// writeChaosMetrics exposes the injection counters of an armed chaos
// injector, so a chaos run's fault mix is observable at the same place
// its effects (retries, quarantines, breaker trips) land.
func writeChaosMetrics(p *promWriter, in *chaos.Injector) {
	counts := in.Counts()
	p.family("mcaserved_chaos_injections_total", "counter", "Injected faults by site and kind (chaos armed).")
	for _, k := range chaos.CountKeys(counts) {
		site, kind, _ := strings.Cut(k, "/")
		p.sample("mcaserved_chaos_injections_total", fmt.Sprintf("site=%q,kind=%q", site, kind), counts[k])
	}
}

func writeWorkerMetrics(p *promWriter, st fleet.WorkerStats) {
	p.family("mcaserved_worker_units_total", "counter", "Work units completed by this worker.")
	p.sample("mcaserved_worker_units_total", "", st.Units)
	p.family("mcaserved_worker_rejected_total", "counter", "Work units rejected over capacity.")
	p.sample("mcaserved_worker_rejected_total", "", st.Rejected)
	p.family("mcaserved_worker_busy", "gauge", "Work-unit slots currently executing.")
	p.sample("mcaserved_worker_busy", "", st.Busy)
	p.family("mcaserved_worker_slots", "gauge", "Configured work-unit slots.")
	p.sample("mcaserved_worker_slots", "", st.Slots)
}
