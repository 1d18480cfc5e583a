// Command bench is the repository's benchmark: it builds cmd/mcaserved,
// runs it as child processes on loopback, drives six named workloads
// from one closed-loop client, checks every reply against a committed
// known answer (expected.json), and prints every metric by name and
// unit. A separate traced pass times the public functions of each layer
// in-process for the per-layer numbers. BENCHMARK.json at the
// repository root names the workloads, metrics, directions and bounds;
// README.md in this directory is the glossary.
//
// Usage, from the repository root:
//
//	go run ./bench -seed 1                         # all workloads, then the traced pass
//	go run ./bench -workload sat-check -seed 3     # one workload, end-to-end metrics
//	go run ./bench -workload sat-check -trace 1    # one workload, per-layer metrics
//	go run ./bench -repeat 5 -out set1             # a set of runs for -compare
//	go run ./bench -compare set1/result.json set2/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run of one workload: what the last line of standard
// output carries, plus what identifies the run inside a result file.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host stamps a result file with where and on what its numbers were
// taken.
type host struct {
	CPU        string   `json:"cpu"`
	Cores      int      `json:"cores"`
	ChildProcs int      `json:"child_gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Repeat     int      `json:"repeat"`
	Workloads  []string `json:"workloads"`
}

// resultFile is what -out receives and -compare reads.
type resultFile struct {
	Host host     `json:"host"`
	Runs []record `json:"runs"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run, or all: every workload untraced, then the traced pass")
	seed := fs.Int64("seed", 1, "draws the valuation scale factors, the solver seeds and the request order")
	seconds := fs.Float64("seconds", 15, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced pass and per-layer metrics")
	repeat := fs.Int("repeat", 1, "with -workload all: untraced runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "directory that keeps result.json and spans.json (default: a work directory removed on exit)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	fs.Parse(os.Args[1:])

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	r, cleanup, err := newRig(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Children die on every exit path: this defer covers returns and
	// panics on the main goroutine, the handler below covers signals.
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	// The in-process replay and layer probes get the processors a child
	// gets, so their numbers compare with the children's on any machine.
	runtime.GOMAXPROCS(childProcs)
	buildTime, err := r.buildServer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b := &bench{rig: r, seconds: *seconds, scales: gridScales, minOps: 1, setUps: 3, buildTime: buildTime, keepSpans: *out != ""}

	file := resultFile{Host: stamp(*seed, *seconds, *repeat, selected)}
	ok := true
	add := func(rec record, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
			return
		}
		file.Runs = append(file.Runs, rec)
		printRecord(rec)
		if err := checkDeclared(specFile, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
		ok = ok && rec.Correct
	}
	if *name != "all" {
		if *trace == 0 {
			add(b.runUntraced(selected[0], *seed))
		} else {
			add(b.runTraced(selected[0], *seed))
		}
	} else {
		for i := 0; i < *repeat; i++ {
			for _, w := range selected {
				add(b.runUntraced(w, *seed+int64(i)))
			}
		}
		for _, w := range selected {
			add(b.runTraced(w, *seed))
		}
	}
	if *out != "" {
		if err := writeJSON(filepath.Join(*out, "result.json"), file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	if len(file.Runs) == 1 {
		// The driver's contract: the last line of standard output is
		// one JSON object with exactly these keys.
		rec := file.Runs[0]
		line, _ := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		fmt.Println(string(line))
	}
	return 0
}

// newRig makes the work directory. With -out it is that directory and
// it is kept; otherwise it is .bench_build/run-<pid> under the current
// directory — inside the checkout, ignored by git — and cleanup removes
// it. cleanup also stops every child.
func newRig(out string) (*rig, func(), error) {
	dir, keep := out, true
	if dir == "" {
		dir, keep = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())), false
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	r := &rig{dir: dir}
	return r, func() {
		r.stopAll()
		if !keep {
			os.RemoveAll(dir)
		}
	}, nil
}

func stamp(seed int64, seconds float64, repeat int, selected []*workload) host {
	h := host{
		CPU: "unknown", Cores: runtime.NumCPU(), ChildProcs: childProcs,
		GoVersion: runtime.Version(), Commit: commit(),
		Seed: seed, Seconds: seconds, Repeat: repeat,
	}
	for _, w := range selected {
		h.Workloads = append(h.Workloads, w.name)
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		h.CPU = cpuModel(string(data))
	}
	return h
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRecord prints every metric of a run by name and unit.
func printRecord(rec record) {
	fmt.Printf("== %s  seed %d  trace %d  attempted %d  failed %d\n", rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		what := ""
		if n == "units_per_s" {
			what = " (" + workloadByName(rec.Workload).units + ")"
		}
		fmt.Printf("%-34s %16.6g %s%s\n", n, m.Value, m.Unit, what)
	}
}

// bench carries what every run shares.
type bench struct {
	rig       *rig
	seconds   float64
	scales    int // scale factors per grid
	minOps    int // timed operations a run makes even when seconds is tiny
	setUps    int // set-ups per untraced run; setup_s is their median
	buildTime time.Duration
	keepSpans bool
	layers    map[string]metric // the layer probes' result, once taken
}
