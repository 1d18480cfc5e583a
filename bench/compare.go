package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// checkDeclared asserts that a run reports exactly the metrics
// BENCHMARK.json declares for its kind — every end-to-end metric with
// tracing off, every per-layer metric with it on — each in the declared
// unit.
func checkDeclared(specPath string, rec record) error {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	declared := spec.EndToEnd
	if rec.Trace != 0 {
		declared = spec.PerLayer
	}
	for _, m := range declared {
		got, ok := rec.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s declares %s, which the run did not report", specPath, m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("%s is reported in %q, %s declares %q", m.Name, got.Unit, specPath, m.Unit)
		}
	}
	if len(rec.Metrics) != len(declared) {
		return fmt.Errorf("the run reports %d metrics, %s declares %d", len(rec.Metrics), specPath, len(declared))
	}
	return nil
}

// specFile is read from the current directory: the benchmark runs from
// the repository root.
const specFile = "BENCHMARK.json"

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// judge compares the two sides' samples of one metric. A spread wider than the bound on either side means the runs
// cannot resolve a change of the size the bound forbids, so the row is
// unresolved, not unchanged.
func judge(spec metricSpec, olds, news []float64) (oldMed, newMed, noise float64, verdict string) {
	oldMed, newMed = median(olds), median(news)
	// The share of the old median by which the new one is worse.
	worse := (newMed - oldMed) / oldMed
	if spec.Better == "higher" {
		worse = -worse
	}
	noise = max(spread(olds), spread(news))
	switch {
	case noise > spec.Bound:
		verdict = verdictUnresolved
	case worse > spec.Bound:
		verdict = verdictRegression
	default:
		verdict = verdictOK
	}
	return
}

// samples collects, per workload, a metric's values over a file's
// untraced runs.
func samples(f resultFile, name string) map[string][]float64 {
	values := map[string][]float64{}
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Trace == 0 {
			values[r.Workload] = append(values[r.Workload], m.Value)
		}
	}
	return values
}

// failedShare is, per workload, failed over attempted across a file's
// untraced runs.
func failedShare(f resultFile) map[string]float64 {
	failed, attempted := map[string]int{}, map[string]int{}
	for _, r := range f.Runs {
		if r.Trace == 0 {
			failed[r.Workload] += r.Failed
			attempted[r.Workload] += r.Attempted
		}
	}
	share := map[string]float64{}
	for w, n := range attempted {
		share[w] = float64(failed[w]) / float64(n)
	}
	return share
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// compareFiles is bench -compare: one row per end-to-end metric and
// workload with both medians and the new-to-old ratio, judged by the
// metric's own direction and bound from BENCHMARK.json, plus one
// failed-share row per workload whose bound is zero. It returns the
// process exit code: non-zero on any regression.
func compareFiles(oldPath, newPath string) int {
	var spec benchmarkSpec
	var oldFile, newFile resultFile
	for _, f := range []struct {
		path string
		into any
	}{{specFile, &spec}, {oldPath, &oldFile}, {newPath, &newFile}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "bench -compare:", err)
			return 2
		}
	}
	counts := map[string]int{}
	fmt.Printf("%-16s %-13s %14s %14s %9s %8s %7s  %s\n", "metric", "workload", "old median", "new median", "new/old", "spread", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		olds, news := samples(oldFile, m.Name), samples(newFile, m.Name)
		for _, w := range spec.Workloads {
			if len(olds[w.Name]) == 0 || len(news[w.Name]) == 0 {
				continue
			}
			oldMed, newMed, noise, verdict := judge(m, olds[w.Name], news[w.Name])
			counts[verdict]++
			fmt.Printf("%-16s %-13s %14.6g %14.6g %9.4f %7.1f%% %6.1f%%  %s\n",
				m.Name, w.Name, oldMed, newMed, newMed/oldMed, 100*noise, 100*m.Bound, verdict)
		}
	}
	oldShares, newShares := failedShare(oldFile), failedShare(newFile)
	for _, w := range spec.Workloads {
		oldShare, inOld := oldShares[w.Name]
		newShare, inNew := newShares[w.Name]
		if !inOld || !inNew {
			continue
		}
		verdict := verdictOK
		if newShare > oldShare {
			verdict = verdictRegression // failed_share may not rise at all
		}
		counts[verdict]++
		fmt.Printf("%-16s %-13s %14.6g %14.6g %9s %8s %6.1f%%  %s\n", "failed_share", w.Name, oldShare, newShare, "", "", 0.0, verdict)
	}
	fmt.Printf("%d ok, %d regression, %d unresolved\n", counts[verdictOK], counts[verdictRegression], counts[verdictUnresolved])
	if counts[verdictRegression] > 0 {
		return 1
	}
	return 0
}
