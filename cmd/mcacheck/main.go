// Command mcacheck is the push-button convergence analysis of the
// paper: it verifies the MCA consensus property for a chosen policy
// combination and scope through the engine layer — exhaustively (the
// serial DFS or the sharded parallel frontier) or, under probabilistic
// network faults, by seeded simulation — and prints a counterexample
// trace when the property fails.
//
// Usage:
//
//	mcacheck -agents 2 -items 2 -topology complete \
//	         -utility nonsubmodular -release -rebid onchange
//	mcacheck -workers 8                    # sharded parallel frontier
//	mcacheck -drop 0.2 -delay 3 -runs 32   # fault-model simulation
//	mcacheck -timeout 30s                  # deadline on the search
//	mcacheck -sweep          # the Result 1 policy matrix
//	mcacheck -scenario examples/scenarios/line3.json   # scenario file
//
// With -scenario the check runs a saved scenario document (the JSON
// format of docs/SCENARIO_FORMAT.md) instead of building one from
// flags; the natural engine is picked per scenario (SAT for relational
// models, simulation for probabilistic faults, explicit otherwise) and
// -workers/-timeout still apply.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"
	"repro/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mcacheck", flag.ContinueOnError)
	agents := fs.Int("agents", 2, "number of agents")
	items := fs.Int("items", 2, "number of items on auction")
	topology := fs.String("topology", "complete", "agent network: line|ring|star|complete|random")
	seed := fs.Int64("seed", 1, "seed for valuations and random topology")
	utility := fs.String("utility", "submodular", "utility policy p_u: submodular|nonsubmodular|flat|escalating")
	release := fs.Bool("release", true, "release-outbid policy p_RO")
	rebid := fs.String("rebid", "onchange", "Remark 1 rebid rule: onchange|never|always")
	target := fs.Int("target", 0, "target bundle size p_T (0 = number of items)")
	maxStates := fs.Int("maxstates", 500000, "state exploration budget")
	workers := fs.Int("workers", 0, "0 = serial DFS; N or -1 (per CPU) = sharded parallel frontier")
	storeName := fs.String("store", "exact", "seen-set store: exact|bitstate|hashcompact (lossy modes trade a bounded miss probability for memory; serial DFS only)")
	storeBits := fs.Int("storebits", 0, "log2 size of the lossy seen-set store (0 = the mode's default)")
	spillDir := fs.String("spilldir", "", "spill sealed state tables to sorted disk segments under this directory (parallel frontier only)")
	spillStates := fs.Int("spillstates", 0, "per-shard sealed-entry threshold that triggers a disk spill (0 = default; needs -spilldir)")
	checkpointFile := fs.String("checkpoint", "", "write a resumable checkpoint to this file when the run stops on the -maxstates budget (parallel frontier only)")
	resumeFile := fs.String("resume", "", "resume a capped run from a checkpoint file; the scenario comes from the checkpoint (combine with a raised -maxstates)")
	drop := fs.Float64("drop", 0, "message drop probability (switches to seeded simulation)")
	delay := fs.Int("delay", 0, "message delivery delay in ticks (switches to seeded simulation)")
	runs := fs.Int("runs", 32, "simulated executions when a probabilistic/timed fault model is set")
	timeout := fs.Duration("timeout", 0, "abort the check after this long (0 = no deadline)")
	sweep := fs.Bool("sweep", false, "run the Result 1 policy sweep instead of a single check")
	scenarioFile := fs.String("scenario", "", "verify a scenario JSON file (docs/SCENARIO_FORMAT.md) instead of building one from flags")
	showTrace := fs.Bool("trace", true, "print the counterexample trace on failure")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	chaosSpec := fs.String("chaos", "", "arm seeded fault injection on checkpoint writes (internal/chaos spec, e.g. \"seed=1,partial=0.5,flip=0.5\"); for failure-semantics testing only")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var injector *chaos.Injector
	if *chaosSpec != "" {
		cfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcacheck:", err)
			return 2
		}
		injector = chaos.New(cfg)
	}
	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcacheck:", err)
		return 2
	}
	defer stopProfiling()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Flags explicitly set on the command line override values a resumed
	// checkpoint carries; untouched defaults defer to the checkpoint.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *sweep {
		return runSweep(ctx, *agents, *items, *seed, *maxStates)
	}
	if *resumeFile != "" {
		return runResume(ctx, resumeOptions{
			path:           *resumeFile,
			checkpointFile: *checkpointFile,
			workers:        *workers,
			maxStates:      *maxStates,
			setWorkers:     explicit["workers"],
			setMaxStates:   explicit["maxstates"],
			spillDir:       *spillDir,
			spillStates:    *spillStates,
			showTrace:      *showTrace,
			injector:       injector,
		})
	}
	if *scenarioFile != "" {
		return runScenarioFile(ctx, *scenarioFile, *workers, *checkpointFile, *showTrace, injector)
	}

	util, err := parseUtility(*utility)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rb, err := parseRebid(*rebid)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	tp, err := parseTopology(*topology)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	tgt := *target
	if tgt <= 0 {
		tgt = *items
	}
	pol := mca.Policy{Target: tgt, Utility: util, ReleaseOutbid: *release, Rebid: rb}
	g := graph.Build(tp, *agents, *seed)
	specs, err := buildSpecs(*agents, *items, pol, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	store, err := parseStore(*storeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	scenario := engine.Scenario{
		Name:       "mcacheck",
		AgentSpecs: specs,
		Graph:      g,
		Explore: explore.Options{
			MaxStates:   *maxStates,
			Store:       store,
			StoreBits:   *storeBits,
			SpillDir:    *spillDir,
			SpillStates: *spillStates,
		},
		Faults: netsim.Faults{Drop: *drop, Delay: *delay},
	}
	var eng engine.Engine = engine.Explicit{Workers: *workers}
	if !scenario.Faults.None() {
		eng = engine.Simulation{Runs: *runs, Seed: *seed}
	}

	fmt.Printf("checking consensus: %d agents (%s), %d items, p_u=%s p_RO=%v rebid=%s engine=%s\n",
		*agents, tp, *items, util.Name(), *release, rb, eng.Name())
	if *checkpointFile != "" && scenario.Faults.None() {
		res, next := engine.Explicit{Workers: *workers}.VerifyResumable(ctx, scenario, nil)
		writeCheckpoint(*checkpointFile, next, injector)
		return report(res, *showTrace)
	}
	return report(eng.Verify(ctx, scenario), *showTrace)
}

// resumeOptions carries the resume invocation's flag state.
type resumeOptions struct {
	path           string
	checkpointFile string
	workers        int
	maxStates      int
	setWorkers     bool
	setMaxStates   bool
	spillDir       string
	spillStates    int
	showTrace      bool
	injector       *chaos.Injector
}

// runResume continues a capped run from a checkpoint file. The scenario
// comes from the checkpoint; explicitly-passed -maxstates and -workers
// override the checkpointed values (raising the state budget is the
// point), untouched defaults defer to them.
func runResume(ctx context.Context, o resumeOptions) int {
	data, err := os.ReadFile(o.path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// Damage shows at decode, or when the resume restores the run state.
	refuse := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, engine.ErrCorruptCheckpoint) || errors.Is(err, explore.ErrCorruptRunState) {
			fmt.Fprintf(os.Stderr, "mcacheck: checkpoint %s is corrupt or truncated; delete it and re-verify from scratch (run without -resume)\n", o.path)
		}
		return 2
	}
	cp, err := engine.DecodeCheckpoint(data)
	if err != nil {
		return refuse(err)
	}
	s := cp.Scenario
	if o.setMaxStates {
		s.Explore.MaxStates = o.maxStates
	}
	s.Explore.SpillDir = o.spillDir
	s.Explore.SpillStates = o.spillStates
	workers := cp.Workers
	if o.setWorkers {
		workers = o.workers
	}
	eng := engine.Explicit{Workers: workers}
	fmt.Printf("resuming scenario %q from %s (engine=%s, maxstates=%d)\n",
		s.Name, o.path, eng.Name(), s.Explore.MaxStates)
	res, next := eng.VerifyResumable(ctx, s, cp)
	if errors.Is(res.Err, explore.ErrCorruptRunState) {
		return refuse(res.Err)
	}
	out := o.checkpointFile
	if out == "" {
		out = o.path // refresh the checkpoint in place on a re-cap
	}
	writeCheckpoint(out, next, o.injector)
	return report(res, o.showTrace)
}

// writeCheckpoint persists a capped run's checkpoint (no-op for nil:
// the run finished, so there is nothing to resume). An armed injector
// mangles the bytes on the way out — that is how the corrupt-resume
// path is exercised end to end.
func writeCheckpoint(path string, cp *engine.Checkpoint, injector *chaos.Injector) {
	if cp == nil {
		return
	}
	data, err := engine.EncodeCheckpoint(cp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcacheck: checkpoint:", err)
		return
	}
	data = injector.Mangle("checkpoint.write", data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "mcacheck: checkpoint:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "mcacheck: run capped; checkpoint written to %s (resume with -resume %s -maxstates N)\n", path, path)
}

// runScenarioFile verifies a saved scenario document on its natural
// engine.
func runScenarioFile(ctx context.Context, path string, workers int, checkpointFile string, showTrace bool, injector *chaos.Injector) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	scenario, err := engine.DecodeScenario(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	eng := engine.Auto{Workers: workers}
	fmt.Printf("checking scenario %q from %s (engine=%s)\n",
		scenario.Name, path, eng.EngineFor(scenario).Name())
	if checkpointFile != "" {
		ex, ok := eng.EngineFor(scenario).(engine.Explicit)
		if !ok {
			fmt.Fprintln(os.Stderr, "mcacheck: -checkpoint applies only to explicit-state scenarios")
			return 2
		}
		res, next := ex.VerifyResumable(ctx, scenario, nil)
		writeCheckpoint(checkpointFile, next, injector)
		return report(res, showTrace)
	}
	return report(eng.Verify(ctx, scenario), showTrace)
}

// report prints a unified result in mcacheck's output format and maps
// it to the exit code: 0 holds, 1 violated, 2 error, 3 inconclusive.
func report(res engine.Result, showTrace bool) int {
	sampled := res.Stats.Runs > 0
	relational := res.Stats.Clauses > 0
	switch {
	case sampled:
		fmt.Printf("runs=%d converged=%d deliveries=%d dropped=%d\n",
			res.Stats.Runs, res.Stats.Converged, res.Stats.Deliveries, res.Stats.Dropped)
	case relational:
		fmt.Printf("vars=%d (+%d aux) clauses=%d translate=%v solve=%v\n",
			res.Stats.PrimaryVars, res.Stats.AuxVars, res.Stats.Clauses,
			res.Stats.TranslateTime, res.Stats.SolveTime)
	default:
		fmt.Printf("states=%d depth=%d exhausted=%v\n", res.Stats.States, res.Stats.MaxDepth, res.Stats.Exhausted)
		if res.Stats.MissProb > 0 {
			fmt.Printf("lossy store: per-query miss probability <= %.3g\n", res.Stats.MissProb)
		}
	}
	switch res.Status {
	case engine.StatusHolds:
		if sampled {
			fmt.Printf("RESULT: consensus HELD in all %d simulated runs\n", res.Stats.Runs)
		} else {
			fmt.Println("RESULT: consensus VERIFIED for all message interleavings in scope")
		}
		return 0
	case engine.StatusInconclusive:
		if res.Err != nil {
			fmt.Printf("RESULT: INCONCLUSIVE (%v)\n", res.Err)
		} else {
			fmt.Println("RESULT: INCONCLUSIVE (state budget exhausted; raise -maxstates)")
		}
		return 3
	case engine.StatusError:
		fmt.Fprintln(os.Stderr, res.Err)
		return 2
	}
	switch {
	case sampled:
		fmt.Printf("RESULT: consensus FAILED in %d of %d simulated runs\n",
			res.Stats.Runs-res.Stats.Converged, res.Stats.Runs)
	case relational:
		fmt.Println("RESULT: consensus VIOLATED (counterexample instance within bounds)")
	default:
		fmt.Printf("RESULT: consensus VIOLATED (%v)\n", res.Violation)
	}
	if showTrace && res.Trace != nil {
		fmt.Println(res.Trace.String())
	}
	return 1
}

// runSweep reproduces Result 1 as a batch-runner workload: every policy
// combination becomes one scenario, verified on the worker pool.
func runSweep(ctx context.Context, agents, items int, seed int64, maxStates int) int {
	type combo struct {
		util mca.Utility
		rel  bool
	}
	var combos []combo
	for _, u := range []mca.Utility{mca.SubmodularResidual{}, mca.NonSubmodularSynergy{}} {
		for _, rel := range []bool{false, true} {
			combos = append(combos, combo{u, rel})
		}
	}
	scenarios := make([]engine.Scenario, len(combos))
	for i, c := range combos {
		pol := mca.Policy{Target: items, Utility: c.util, ReleaseOutbid: c.rel, Rebid: mca.RebidOnChange}
		specs, err := buildSpecs(agents, items, pol, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		scenarios[i] = engine.Scenario{
			Name:       fmt.Sprintf("%s/p_RO=%v", c.util.Name(), c.rel),
			AgentSpecs: specs,
			Graph:      graph.Complete(agents),
			Explore:    explore.Options{MaxStates: maxStates},
		}
	}
	results, _ := engine.NewRunner(engine.RunnerOptions{}).Run(ctx, scenarios)

	fmt.Printf("Result 1 policy sweep (%d agents, %d items, complete graph):\n", agents, items)
	fmt.Printf("%-26s %-10s %-12s %s\n", "utility (p_u)", "p_RO", "verdict", "violation")
	code := 0
	for i, res := range results {
		verdict := "converges"
		if res.Status != engine.StatusHolds {
			verdict = "FAILS"
			if combos[i].util.Submodular() || !combos[i].rel {
				code = 1 // unexpected failure
			}
		}
		fmt.Printf("%-26s %-10v %-12s %v\n", combos[i].util.Name(), combos[i].rel, verdict, res.Violation)
	}
	return code
}

// buildSpecs creates mirrored antisymmetric valuations (the Fig. 2
// pattern generalized) so that conflicts genuinely arise.
func buildSpecs(n, items int, pol mca.Policy, seed int64) ([]mca.Config, error) {
	out := make([]mca.Config, n)
	for i := 0; i < n; i++ {
		base := make([]int64, items)
		for j := 0; j < items; j++ {
			base[j] = int64(10 + 5*((i+j)%items) + int(seed%3))
		}
		cfg := mca.Config{ID: mca.AgentID(i), Items: items, Base: base, Policy: pol}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		out[i] = cfg
	}
	return out, nil
}

func parseUtility(s string) (mca.Utility, error) {
	switch s {
	case "submodular":
		return mca.SubmodularResidual{}, nil
	case "nonsubmodular":
		return mca.NonSubmodularSynergy{}, nil
	case "flat":
		return mca.FlatUtility{}, nil
	case "escalating":
		return mca.EscalatingUtility{}, nil
	default:
		return nil, fmt.Errorf("unknown utility %q", s)
	}
}

func parseStore(s string) (explore.StoreKind, error) {
	switch s {
	case "exact":
		return explore.StoreExact, nil
	case "bitstate":
		return explore.StoreBitstate, nil
	case "hashcompact":
		return explore.StoreHashCompact, nil
	default:
		return 0, fmt.Errorf("unknown store %q (want exact|bitstate|hashcompact)", s)
	}
}

func parseRebid(s string) (mca.RebidMode, error) {
	switch s {
	case "onchange":
		return mca.RebidOnChange, nil
	case "never":
		return mca.RebidNever, nil
	case "always":
		return mca.RebidAlways, nil
	default:
		return 0, fmt.Errorf("unknown rebid mode %q", s)
	}
}

// parseTopology reads -topology, whose spellings are graph's own tokens.
func parseTopology(s string) (graph.Topology, error) {
	var t graph.Topology
	err := t.UnmarshalText([]byte(s))
	return t, err
}
