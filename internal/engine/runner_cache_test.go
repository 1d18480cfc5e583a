package engine_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"
)

// cachedSweepScenarios builds 120 content-distinct scenarios that all
// reach a conclusive verdict quickly: explicit checks over varying
// valuations and policies, with a simulation tier under message loss.
// Conclusive verdicts are what the cache stores, so a fully conclusive
// sweep makes the warm pass a pure cache workload.
func cachedSweepScenarios() []engine.Scenario {
	utilities := []struct {
		u       mca.Utility
		release bool
	}{
		{mca.SubmodularResidual{}, true},
		{mca.NonSubmodularSynergy{}, true}, // Result 1: violates
		{mca.NonSubmodularSynergy{}, false},
		{mca.FlatUtility{}, false},
	}
	out := make([]engine.Scenario, 0, 120)
	for i := 0; len(out) < 120; i++ {
		c := utilities[i%len(utilities)]
		pol := mca.Policy{Target: 2, Utility: c.u, ReleaseOutbid: c.release, Rebid: mca.RebidOnChange}
		// Distinct valuations per scenario: the cache is
		// content-addressed, so identical cells would collide.
		base0 := []int64{int64(10 + i%11), int64(15 + i%13)}
		base1 := []int64{int64(15 + i%13), int64(10 + i%11)}
		s := engine.Scenario{
			Name: fmt.Sprintf("cached-sweep-%d", i),
			AgentSpecs: []mca.Config{
				{ID: 0, Items: 2, Base: base0, Policy: pol},
				{ID: 1, Items: 2, Base: base1, Policy: pol},
			},
			Graph: graph.Complete(2),
		}
		if i%5 == 4 {
			// Simulation tier: sampled verdicts are always conclusive.
			s.Faults = netsim.Faults{Drop: 0.2, Delay: i % 3}
		}
		out = append(out, s)
	}
	return out
}

// TestRunnerCachedSweep repeats a 100+-scenario sweep through a cached
// Runner: the second pass must be served from the cache (every
// conclusive verdict a hit), report identical verdicts, and finish
// measurably faster than the cold pass.
func TestRunnerCachedSweep(t *testing.T) {
	scenarios := cachedSweepScenarios()
	c, err := cache.New(cache.Options{Capacity: 4 * len(scenarios)})
	if err != nil {
		t.Fatal(err)
	}
	r := engine.NewRunner(engine.RunnerOptions{Workers: 4, Cache: c})

	cold, coldSum := r.Run(context.Background(), scenarios)
	if coldSum.Total != len(scenarios) || coldSum.Errors != 0 || coldSum.Inconclusive != 0 {
		t.Fatalf("cold sweep broken: %+v", coldSum)
	}
	if coldSum.CacheHits != 0 {
		t.Fatalf("cold pass reported %d cache hits", coldSum.CacheHits)
	}

	warm, warmSum := r.Run(context.Background(), scenarios)
	conclusive := coldSum.Holds + coldSum.Violated
	if conclusive < 100 {
		t.Fatalf("sweep too small to be meaningful: %d conclusive scenarios", conclusive)
	}
	if warmSum.CacheHits != conclusive {
		t.Fatalf("warm pass: %d cache hits, want %d (every conclusive cold verdict)", warmSum.CacheHits, conclusive)
	}
	st := c.Stats()
	if st.Hits != uint64(conclusive) || st.Puts != uint64(conclusive) {
		t.Fatalf("cache stats %+v, want %d hits and %d puts", st, conclusive, conclusive)
	}

	// Verdicts are identical; only the Cached flag and wall time differ.
	for i := range cold {
		cr, wr := cold[i], warm[i]
		if cr.Status != wr.Status || cr.Violation != wr.Violation || cr.Scenario != wr.Scenario {
			t.Fatalf("scenario %d verdict changed: cold %v/%v, warm %v/%v", i, cr.Status, cr.Violation, wr.Status, wr.Violation)
		}
		conclusiveRes := cr.Status == engine.StatusHolds || cr.Status == engine.StatusViolated
		if wr.Cached != conclusiveRes {
			t.Fatalf("scenario %d (%s, %v): cached=%v", i, wr.Scenario, wr.Status, wr.Cached)
		}
	}

	// The warm pass skips every verification, so it must beat the cold
	// pass outright. The margin is enormous in practice (micro- vs
	// hundreds of milliseconds); asserting a 2x floor keeps the test
	// robust on noisy machines.
	if warmSum.Wall*2 >= coldSum.Wall {
		t.Fatalf("warm pass not measurably faster: cold %v, warm %v", coldSum.Wall, warmSum.Wall)
	}
}

// TestRunnerCacheSkipsInconclusive: a scenario that exhausts its budget
// is inconclusive and must not be cached — a later run with the same
// content gets a fresh chance.
func TestRunnerCacheSkipsInconclusive(t *testing.T) {
	pol := mca.Policy{Target: 2, Utility: mca.SubmodularResidual{}, ReleaseOutbid: true, Rebid: mca.RebidOnChange}
	s := engine.Scenario{
		Name: "tiny-budget",
		AgentSpecs: []mca.Config{
			{ID: 0, Items: 2, Base: []int64{10, 15}, Policy: pol},
			{ID: 1, Items: 2, Base: []int64{15, 10}, Policy: pol},
		},
		Graph:   graph.Complete(2),
		Explore: explore.Options{MaxStates: 2},
	}
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := engine.NewRunner(engine.RunnerOptions{Workers: 1, Cache: c})
	for pass := 0; pass < 2; pass++ {
		results, sum := r.Run(context.Background(), []engine.Scenario{s})
		if results[0].Status != engine.StatusInconclusive {
			t.Fatalf("pass %d: %v", pass, results[0].Status)
		}
		if sum.CacheHits != 0 || results[0].Cached {
			t.Fatalf("pass %d: inconclusive result served from cache", pass)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("inconclusive result stored: %d entries", c.Len())
	}
}

// sweepOf wraps scenarios as a sweep document: one axis, one variant
// per scenario, each patch the scenario's own sections.
func sweepOf(t *testing.T, scenarios []engine.Scenario) []byte {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"version":1,"name":"wrapped","base":{},"axes":[{"axis":"cell","variants":[`)
	for i := range scenarios {
		s := scenarios[i]
		s.Name = ""
		doc, err := engine.EncodeScenario(&s)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		// A patch carries no version: drop the document's leading member.
		patch := "{" + strings.TrimPrefix(strings.TrimPrefix(string(doc), `{"version":1`), ",")
		fmt.Fprintf(&b, `{"name":"c%d","scenario":%s}`, i, patch)
	}
	b.WriteString(`]}]}`)
	return []byte(b.String())
}

// TestStreamSweepSharesTheCacheWithRun: content addresses computed from
// a sweep's carried bytes are the ones Run computes by encoding each
// scenario, in both directions — a cache filled by either path is a
// full set of hits for the other — and the encoded lines are the
// results.
func TestStreamSweepSharesTheCacheWithRun(t *testing.T) {
	scenarios := cachedSweepScenarios()
	sw, err := engine.DecodeSweep(sweepOf(t, scenarios))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Len() != len(scenarios) {
		t.Fatalf("%d cells for %d scenarios", sw.Len(), len(scenarios))
	}
	collect := func(r *engine.Runner) []engine.Result {
		t.Helper()
		results := make([]engine.Result, sw.Len())
		for line := range r.StreamSweep(context.Background(), sw) {
			if line.Err != nil {
				t.Fatal(line.Err)
			}
			decoded, err := engine.DecodeResult(line.Data)
			if err != nil {
				t.Fatalf("line does not decode: %v\n%s", err, line.Data)
			}
			res := line.Result
			if decoded.Index != res.Index || decoded.Scenario != res.Scenario || decoded.Status != res.Status ||
				decoded.Cached != res.Cached || decoded.Stats.States != res.Stats.States {
				t.Fatalf("line %s is not result %+v", line.Data, res)
			}
			results[res.Index] = res
		}
		return results
	}

	for _, order := range []string{"run-fills", "sweep-fills"} {
		c, err := cache.New(cache.Options{Capacity: 4 * len(scenarios)})
		if err != nil {
			t.Fatal(err)
		}
		r := engine.NewRunner(engine.RunnerOptions{Workers: 4, Cache: c})
		var cold, warm []engine.Result
		if order == "run-fills" {
			cold, _ = r.Run(context.Background(), scenarios)
			warm = collect(r)
		} else {
			cold = collect(r)
			warm, _ = r.Run(context.Background(), scenarios)
		}
		for i := range cold {
			if cold[i].Cached {
				t.Fatalf("%s: cold scenario %d served from an empty cache", order, i)
			}
			if !warm[i].Cached {
				t.Fatalf("%s: scenario %d missed the cache the other path filled", order, i)
			}
			if warm[i].Status != cold[i].Status || warm[i].Stats.States != cold[i].Stats.States || warm[i].Index != i {
				t.Fatalf("%s: scenario %d: warm %+v, cold %+v", order, i, warm[i], cold[i])
			}
		}
		if st := c.Stats(); st.Puts != uint64(len(scenarios)) || st.Hits != uint64(len(scenarios)) {
			t.Fatalf("%s: cache stats %+v, want %d puts and hits", order, st, len(scenarios))
		}
	}
}
