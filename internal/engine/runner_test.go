package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/netsim"
)

// sweepScenarios builds a heterogeneous batch mixing policy, topology,
// and network-fault dimensions: the production sweep workload. With 4
// utilities × 2 release modes × 3 topologies × (reliable + 3 fault
// models) plus a relational tier it exceeds 100 scenarios.
func sweepScenarios(t testing.TB) []engine.Scenario {
	utilities := []mca.Utility{
		mca.SubmodularResidual{}, mca.NonSubmodularSynergy{},
		mca.FlatUtility{}, mca.EscalatingUtility{Cap: 1 << 10},
	}
	graphs := map[string]*graph.Graph{
		"complete2": graph.Complete(2),
		"line3":     graph.Line(3),
		"star3":     graph.Star(3),
		"ring4":     graph.Ring(4),
	}
	faults := map[string]netsim.Faults{
		"reliable":  {},
		"drop":      {Drop: 0.25},
		"delay":     {Delay: 3},
		"partition": {Partitions: [][]int{{0}, {1, 2}}, HealAfter: 2},
	}
	var out []engine.Scenario
	for _, u := range utilities {
		for _, release := range []bool{false, true} {
			for gname, g := range graphs {
				n := g.N()
				specs := make([]mca.Config, n)
				for i := 0; i < n; i++ {
					base := []int64{int64(10 + 5*(i%2)), int64(15 - 5*(i%2))}
					specs[i] = mca.Config{
						ID: mca.AgentID(i), Items: 2, Base: base,
						Policy: mca.Policy{Target: 2, Utility: u, ReleaseOutbid: release, Rebid: mca.RebidOnChange},
					}
				}
				for fname, f := range faults {
					if fname == "partition" && n < 3 {
						continue
					}
					out = append(out, engine.Scenario{
						Name:       fmt.Sprintf("%s/release=%v/%s/%s", u.Name(), release, gname, fname),
						AgentSpecs: specs,
						Graph:      g,
						Explore:    explore.Options{MaxStates: 30000},
						Faults:     f,
					})
				}
			}
		}
	}
	// Relational tier: the bounded SAT models ride in the same batch.
	for _, e := range satModels(t) {
		out = append(out, engine.Scenario{Name: "model/" + e.Name, Model: e})
	}
	if len(out) < 100 {
		t.Fatalf("sweep too small: %d scenarios", len(out))
	}
	return out
}

// satModels builds both encodings at a small scope for sweep use.
func satModels(t testing.TB) []*mcamodel.Encoding {
	sc := mcamodel.Scope{PNodes: 2, VNodes: 2, Values: 3, States: 2, Msgs: 1, IntBitwidth: 3}
	n, err := mcamodel.BuildNaive(sc)
	if err != nil {
		t.Fatal(err)
	}
	o, err := mcamodel.BuildOptimized(sc)
	if err != nil {
		t.Fatal(err)
	}
	return []*mcamodel.Encoding{n, o}
}

// TestRunnerSweepDeterministicAcrossWorkerCounts is the acceptance
// test: a ≥100-scenario sweep including drop, delay, and partition
// fault models completes with byte-identical result lines and an
// identical aggregate summary at any worker count.
func TestRunnerSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	scenarios := sweepScenarios(t)
	t.Logf("sweep size: %d scenarios", len(scenarios))

	var baseline []string
	var baseSummary engine.Summary
	for _, workers := range []int{1, 2, 8} {
		r := engine.NewRunner(engine.RunnerOptions{Workers: workers})
		results, sum := r.Run(context.Background(), scenarios)
		comp := make([]string, len(results))
		for i, res := range results {
			if res.Index != i {
				t.Fatalf("workers=%d: result %d has index %d", workers, i, res.Index)
			}
			if res.Status == engine.StatusError {
				t.Fatalf("workers=%d: scenario %q errored: %v", workers, res.Scenario, res.Err)
			}
			line, err := engine.EncodeResult(&res)
			if err != nil {
				t.Fatal(err)
			}
			comp[i] = string(line)
		}
		sum.Wall = 0
		if baseline == nil {
			baseline, baseSummary = comp, sum
			if sum.Violated == 0 {
				t.Fatal("sweep found no violations: fault and adversarial scenarios missing their counterexamples")
			}
			if sum.Holds == 0 {
				t.Fatal("sweep verified nothing: fixture broken")
			}
			continue
		}
		for i := range comp {
			if comp[i] != baseline[i] {
				t.Fatalf("workers=%d: result %d diverged:\n  got  %s\n  want %s", workers, i, comp[i], baseline[i])
			}
		}
		if fmt.Sprintf("%+v", sum) != fmt.Sprintf("%+v", baseSummary) {
			t.Fatalf("workers=%d: summary diverged:\n  got  %+v\n  want %+v", workers, sum, baseSummary)
		}
	}
	if baseSummary.Total != len(scenarios) ||
		baseSummary.Holds+baseSummary.Violated+baseSummary.Inconclusive+baseSummary.Errors != baseSummary.Total {
		t.Fatalf("summary does not partition the batch: %+v", baseSummary)
	}
}

// TestRunnerStreamDeliversEveryIndex checks streaming completeness.
func TestRunnerStreamDeliversEveryIndex(t *testing.T) {
	scenarios := sweepScenarios(t)[:24]
	r := engine.NewRunner(engine.RunnerOptions{Workers: 4})
	seen := make(map[int]bool)
	for res := range r.Stream(context.Background(), scenarios) {
		if seen[res.Index] {
			t.Fatalf("index %d delivered twice", res.Index)
		}
		seen[res.Index] = true
	}
	if len(seen) != len(scenarios) {
		t.Fatalf("stream delivered %d of %d results", len(seen), len(scenarios))
	}
}

// TestRunnerCancelledBatch: cancelling mid-batch still delivers one
// result per scenario, with unstarted work marked inconclusive.
func TestRunnerCancelledBatch(t *testing.T) {
	scenarios := sweepScenarios(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := engine.NewRunner(engine.RunnerOptions{Workers: 2})
	count := 0
	for res := range r.Stream(ctx, scenarios) {
		count++
		if count == 5 {
			cancel()
		}
		_ = res
	}
	if count != len(scenarios) {
		t.Fatalf("cancelled stream delivered %d of %d results", count, len(scenarios))
	}
}

// panicky is an engine that panics on the scenarios named in it and
// runs the rest on Auto.
type panicky map[string]bool

func (panicky) Name() string { return "panicky" }
func (p panicky) Verify(ctx context.Context, s engine.Scenario) engine.Result {
	if p[s.Name] {
		var none []int
		_ = none[len(s.Name)] // index out of range
	}
	return engine.Auto{}.Verify(ctx, s)
}

// TestRunnerContainsEnginePanic: a panic inside one scenario's Verify —
// on a pool goroutine, where nothing else would recover it — is that
// scenario's error result; every other scenario still reports. The
// panic is logged once, through the default slog.Logger, with its
// message and the stack it was raised on. (The test swaps the default
// logger, so it does not run in parallel.)
func TestRunnerContainsEnginePanic(t *testing.T) {
	scenarios := sweepScenarios(t)[:12]
	bad := scenarios[5].Name
	want, _ := engine.NewRunner(engine.RunnerOptions{Workers: 3}).Run(context.Background(), scenarios)

	var logged bytes.Buffer
	// SetDefault also routes the log package through the handler; undo
	// both.
	defer log.SetOutput(log.Writer())
	defer log.SetFlags(log.Flags())
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewJSONHandler(&logged, nil)))
	results, sum := engine.NewRunner(engine.RunnerOptions{Workers: 3, Engine: panicky{bad: true}}).
		Run(context.Background(), scenarios)
	var record struct{ Level, Msg, Err, Stack string }
	dec := json.NewDecoder(&logged)
	if err := dec.Decode(&record); err != nil || dec.More() {
		t.Fatalf("want one log record of the panic, got %v, more %v", err, dec.More())
	}
	if record.Level != "ERROR" || !strings.Contains(record.Err, "panic in panicky") ||
		!strings.Contains(record.Err, "index out of range") ||
		!strings.Contains(record.Stack, "runtime/debug.Stack") || !strings.Contains(record.Stack, "panicky.Verify") {
		t.Fatalf("panic logged as %+v", record)
	}
	if sum.Total != len(scenarios) || sum.Errors != 1 {
		t.Fatalf("summary %+v, want one error in %d", sum, len(scenarios))
	}
	for i, res := range results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
		if res.Scenario == bad {
			if res.Status != engine.StatusError || res.Engine != "panicky" || res.Err == nil ||
				!strings.Contains(res.Err.Error(), "panic") || !strings.Contains(res.Err.Error(), "index out of range") {
				t.Fatalf("panicking scenario reported %+v", res)
			}
			continue
		}
		if res.Status != want[i].Status || res.Stats.States != want[i].Stats.States {
			t.Fatalf("scenario %q: %v/%d states beside the panic, %v/%d without", res.Scenario,
				res.Status, res.Stats.States, want[i].Status, want[i].Stats.States)
		}
	}
}

// TestVerifyCachedContainsEnginePanic: the containment is in
// VerifyCached, so the callers that are not a Runner — mcaserved's
// /verify, a fleet worker's /fleet/work, every leg of gen.DiffVerify —
// get an error result too, with or without a cache. On the parent the
// panic left VerifyCached and took the calling goroutine with it.
func TestVerifyCachedContainsEnginePanic(t *testing.T) {
	s := sweepScenarios(t)[0]
	c, err := cache.New(cache.Options{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range []engine.ResultCache{nil, c} {
		res := engine.VerifyCached(context.Background(), panicky{s.Name: true}, s, rc)
		if res.Status != engine.StatusError || res.Engine != "panicky" || res.Scenario != s.Name || res.Err == nil ||
			!strings.Contains(res.Err.Error(), "panic in panicky") || !strings.Contains(res.Err.Error(), "index out of range") {
			t.Fatalf("panicking engine reported %+v", res)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("%d error results cached", c.Len())
	}
}
