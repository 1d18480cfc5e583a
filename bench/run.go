package main

import (
	"fmt"
	"os"
	"time"
)

// Units of the end-to-end metrics, as BENCHMARK.json declares them.
// units_per_s counts what the workload's callers wait for: states
// explored on the deep workloads, cells verified on the sweeps, verdicts
// on sat-check.
const (
	unitSeconds = "s"
	unitMillis  = "ms"
	unitPerSec  = "1/s"
)

// measure runs the workload's operations back to back, one in flight,
// until the run's seconds have passed, and returns them with the cache
// and fleet counters they moved. It asserts the sanity pins of a run:
// the cache was used the way the workload says (every lookup a hit
// where it replays, every lookup a miss where requests are fresh), and
// the fleet never fell back to verifying on the coordinator.
func (b *bench) measure(in *instance, seconds float64) (outs []outcome, cs cacheStats, fs fleetStats, err error) {
	cs0, fs0, err := in.stats()
	if err != nil {
		return nil, cs, fs, err
	}
	failures := 0
	begin := time.Now()
	for len(outs) < b.minOps || time.Since(begin).Seconds() < seconds {
		out := in.op()
		if out.err != nil {
			if failures++; failures <= 5 {
				fmt.Fprintf(os.Stderr, "bench: %s: operation %d failed: %v\n", in.w.name, len(outs), out.err)
			}
		}
		outs = append(outs, out)
	}
	if cs, fs, err = in.stats(); err != nil {
		return nil, cs, fs, err
	}
	cs, fs = cs.minus(cs0), fs.minus(fs0)
	switch {
	case in.w.replay > 0 && cs.Misses != 0:
		err = fmt.Errorf("%s: sanity pin: %d cache misses on a replaying workload, want 0", in.w.name, cs.Misses)
	case in.w.replay == 0 && cs.hits() != 0:
		err = fmt.Errorf("%s: sanity pin: %d cache hits on a workload of fresh requests, want 0", in.w.name, cs.hits())
	case fs.LocalFallbacks != 0:
		err = fmt.Errorf("%s: sanity pin: %d local fallbacks on the coordinator, want 0", in.w.name, fs.LocalFallbacks)
	}
	return outs, cs, fs, err
}

// split returns the successful outcomes and how many failed. A failed
// operation has no latency: it is counted, and left out of every
// timing.
func split(outs []outcome) (good []outcome, failed int) {
	for _, o := range outs {
		if o.err != nil {
			failed++
		} else {
			good = append(good, o)
		}
	}
	return good, failed
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latencies(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = millis(o.latency)
	}
	return xs
}

// unitsPerSecond is the work completed divided by the summed wall time
// of the operations, so generating inputs between operations does not
// count.
func unitsPerSecond(outs []outcome) float64 {
	units, wall := 0, time.Duration(0)
	for _, o := range outs {
		units += o.units
		wall += o.latency
	}
	return float64(units) / wall.Seconds()
}

// runUntraced is one run with tracing off: set up several times, so
// that setup_s is a median, measure for the run's seconds on the last
// set-up, report the end-to-end metrics.
func (b *bench) runUntraced(w *workload, seed int64) (record, error) {
	defer b.rig.stopAll()
	src := newSource(seed)
	var in *instance
	var setupTimes []float64
	for i := 0; i < b.setUps; i++ {
		b.rig.stopAll()
		begin := time.Now()
		var err error
		if in, err = b.rig.setUp(w, src, b.scales); err != nil {
			return record{}, err
		}
		setupTimes = append(setupTimes, time.Since(begin).Seconds())
	}
	outs, _, _, err := b.measure(in, b.seconds)
	if err != nil {
		return record{}, err
	}
	good, failed := split(outs)
	rec := record{
		Workload: w.name, Seed: seed, Attempted: len(outs), Failed: failed,
		Correct: failed == 0,
		Metrics: map[string]metric{"setup_s": {median(setupTimes), unitSeconds}},
	}
	if len(good) > 0 {
		rec.Metrics["latency_p50_ms"] = metric{median(latencies(good)), unitMillis}
		rec.Metrics["units_per_s"] = metric{unitsPerSecond(good), unitPerSec}
	}
	return rec, nil
}

// cacheStats is the part of /cache/stats the benchmark reads.
type cacheStats struct {
	Hits       uint64 `json:"hits"`
	DiskHits   uint64 `json:"disk_hits"`
	RemoteHits uint64 `json:"remote_hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
}

func (s cacheStats) hits() uint64 { return s.Hits + s.DiskHits + s.RemoteHits }

// hitRatio is hits over lookups; 0 when nothing was looked up.
func (s cacheStats) hitRatio() float64 {
	if s.hits()+s.Misses == 0 {
		return 0
	}
	return float64(s.hits()) / float64(s.hits()+s.Misses)
}

func (s cacheStats) minus(o cacheStats) cacheStats {
	return cacheStats{s.Hits - o.Hits, s.DiskHits - o.DiskHits, s.RemoteHits - o.RemoteHits, s.Misses - o.Misses, s.Evictions - o.Evictions}
}

// fleetStats is the part of /fleet/status the benchmark reads.
type fleetStats struct {
	Dispatches     uint64 `json:"dispatches"`
	Retries        uint64 `json:"retries"`
	Rejections     uint64 `json:"rejections"`
	LocalFallbacks uint64 `json:"local_fallbacks"`
}

func (s fleetStats) minus(o fleetStats) fleetStats {
	return fleetStats{s.Dispatches - o.Dispatches, s.Retries - o.Retries, s.Rejections - o.Rejections, s.LocalFallbacks - o.LocalFallbacks}
}

// stats reads the front child's cache counters and, on a fleet, the
// coordinator's dispatch counters.
func (in *instance) stats() (cs cacheStats, fs fleetStats, err error) {
	if err = in.front.getJSON("/cache/stats", &cs); err != nil {
		return
	}
	if in.w.fleet {
		err = in.front.getJSON("/fleet/status", &fs)
	}
	return
}
