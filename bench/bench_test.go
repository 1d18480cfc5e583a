package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/engine"
)

// Same seed, byte-identical request bodies; another seed, other bodies.
func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newSource(7), newSource(7), newSource(8)
		for i := 0; i < 3; i++ {
			x, y, z := w.body(a, 5), w.body(b, 5), w.body(c, 5)
			if !bytes.Equal(x, y) {
				t.Fatalf("%s: body %d differs between two sources of seed 7", w.name, i)
			}
			if bytes.Equal(x, z) {
				t.Fatalf("%s: body %d is the same for seeds 7 and 8", w.name, i)
			}
		}
	}
}

// A source never repeats a value, or a fresh request could meet a cache
// entry an earlier one left.
func TestSourceNeverRepeats(t *testing.T) {
	s, seen := newSource(1), map[int64]bool{}
	for i := 0; i < 20000; i++ {
		v := s.scale()
		if seen[v] || v%4 != 0 {
			t.Fatalf("draw %d: scale %d repeats or is not a multiple of 4", i, v)
		}
		seen[v] = true
	}
}

// Scaling every base valuation changes the content address and nothing
// else: the small star-4 instance has 35,899 states at every scale.
func TestScaleInvariance(t *testing.T) {
	t.Parallel()
	want := expected.Verify["star4-flat"]
	keys := map[string]bool{}
	for _, scale := range []int64{4, 4000, 4 << 28} {
		s, err := engine.DecodeScenario(star4(scale))
		if err != nil {
			t.Fatal(err)
		}
		res := engine.Explicit{}.Verify(context.Background(), s)
		if res.Status.String() != want.Status || res.Stats.States != want.States {
			t.Errorf("scale %d: %v with %d states, want %s with %d", scale, res.Status, res.Stats.States, want.Status, want.States)
		}
		key, err := engine.CacheKey(&s, engine.Explicit{})
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
	}
	if len(keys) != 3 {
		t.Errorf("3 scales gave %d content addresses, want 3", len(keys))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the acceptance check of the bounds uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5}, // two samples extrapolate
		{[]float64{100, 101, 103, 99, 100, 102, 98, 100, 101, 100}, 99.75, 101.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{100, 101, 103, 99, 100, 102, 98, 100, 101, 100}); math.Abs(got-0.015) > 1e-9 {
		t.Errorf("spread = %v, want 0.015", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "units_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v} }
	for _, c := range []struct {
		name       string
		spec       metricSpec
		olds, news []float64
		want       string
	}{
		{"same", lower, steady(100), steady(100), verdictOK},
		{"slower within bound", lower, steady(100), steady(109), verdictOK},
		{"slower beyond bound", lower, steady(100), steady(111), verdictRegression},
		{"faster", lower, steady(100), steady(50), verdictOK},
		{"less throughput beyond bound", higher, steady(100), steady(89), verdictRegression},
		{"more throughput", higher, steady(100), steady(150), verdictOK},
		{"too noisy to tell", lower, []float64{80, 100, 120, 100}, steady(100), verdictUnresolved},
	} {
		if _, _, _, got := judge(c.spec, c.olds, c.news); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json names exactly the workloads and end-to-end metrics the
// runner knows.
func TestBenchmarkJSONMatches(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the runner %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the runner %q", i, w.Name, workloads[i].name)
		}
	}
	rec := record{Metrics: map[string]metric{}}
	for _, m := range spec.EndToEnd {
		rec.Metrics[m.Name] = metric{1, m.Unit}
	}
	if err := checkDeclared("../BENCHMARK.json", rec); err != nil {
		t.Error(err)
	}
	delete(rec.Metrics, "setup_s")
	if err := checkDeclared("../BENCHMARK.json", rec); err == nil {
		t.Error("a record without setup_s passed checkDeclared")
	}
}

// The smoke path: every workload with tiny counts against real child
// servers, then one traced replay, so harness rot fails go test ./...
// The deep workloads take the small star-4 instance in place of ring-3.
func TestSmoke(t *testing.T) {
	t.Parallel()
	r := &rig{root: "..", dir: t.TempDir()}
	defer r.stopAll()
	if _, err := r.buildServer(); err != nil {
		t.Fatal(err)
	}
	b := &bench{rig: r, seconds: 0, scales: 2, minOps: 2, setUps: 1}
	for _, w := range workloads {
		if w.name == "deep-sharded" {
			continue // the same harness path as deep-serial
		}
		small := *w
		if w.family == "ring3-flat" {
			small.family = "star4-flat"
			small.body = func(s *source, _ int) []byte { return star4(s.scale()) }
		}
		rec, err := b.runUntraced(&small, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted != 2 {
			t.Errorf("%s: %+v", w.name, rec)
		}
		line, _ := json.Marshal(rec.Metrics)
		for _, name := range []string{"setup_s", "latency_p50_ms", "units_per_s"} {
			if m := rec.Metrics[name]; !(m.Value > 0) {
				t.Errorf("%s: %s is not positive in %s", w.name, name, line)
			}
		}
	}
	for _, name := range []string{"sweep-warm", "fleet-sweep"} {
		spans, _, _, err := b.replayPass(workloadByName(name), newSource(3), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(spans) == 0 {
			t.Errorf("%s: the traced replay recorded no spans", name)
		}
	}
}

// A reply that misses its known answer must fail the operation.
func TestCheckersReject(t *testing.T) {
	good := []byte(`{"version":1,"scenario":"x","status":"holds","stats":{"states":35899,"wall_ns":5}}`)
	if out := checkVerify(reply{status: 200, body: good}, "star4-flat"); out.err != nil || out.units != 35899 {
		t.Fatalf("good reply: %+v", out)
	}
	for name, body := range map[string]string{
		"wrong states":  `{"version":1,"status":"holds","stats":{"states":35898}}`,
		"wrong verdict": `{"version":1,"status":"violated","violation":"oscillation","stats":{"states":35899}}`,
		"inconclusive":  `{"version":1,"status":"inconclusive","stats":{"states":35899}}`,
		"not JSON":      `<html>`,
	} {
		if out := checkVerify(reply{status: 200, body: []byte(body)}, "star4-flat"); out.err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if out := checkVerify(reply{status: 429, body: good}, "star4-flat"); out.err == nil {
		t.Error("a 429 was accepted")
	}
	cell := `{"version":1,"scenario":"mca/submodular-residual-x4/reliable","status":"holds"}` + "\n"
	if out := checkSweep(reply{status: 200, body: []byte(cell)}, 1, 0); out.err == nil {
		t.Error("a stream without a summary line was accepted")
	}
}
