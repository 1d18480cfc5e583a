// Command mcacheck is the push-button convergence analysis of the
// paper: it verifies the MCA consensus property for a chosen policy
// combination and scope through the engine layer — exhaustively (the
// serial DFS) or, under probabilistic network faults, by seeded
// simulation — and prints a counterexample trace when the property
// fails.
//
// Usage:
//
//	mcacheck -agents 2 -items 2 -topology complete \
//	         -utility non-submodular-synergy -release -rebid on-change
//	mcacheck -store bitstate -storebits 28 # bounded-memory seen-set
//	mcacheck -drop 0.2 -delay 3 -runs 32   # fault-model simulation
//	mcacheck -timeout 30s                  # deadline on the search
//	mcacheck -scenario examples/scenarios/line3.json   # scenario file
//	mcacheck -maxstates 1000 -checkpoint run.ckpt
//	mcacheck -resume run.ckpt -maxstates 500000
//
// A run is one pipeline. The scenario comes from exactly one source:
// the flags, a scenario document (-scenario, the JSON format of
// docs/SCENARIO_FORMAT.md) or a checkpoint (-resume). engine.Auto picks
// the engine: SAT for relational models, simulation for probabilistic
// or timed faults, explicit otherwise. The run flags that engine reads
// overlay the scenario: a flag-built scenario takes every flag,
// defaults included; a document or checkpoint takes only the flags set
// on the command line, and untouched defaults defer to it. One call
// verifies, resumably when -checkpoint or -resume is given.
//
// A flag set on the command line that the run does not read is an
// error naming it (exit 2), never a silent no-op. The scenario-shaping
// flags (-agents -items -topology -utility -release -rebid -target
// -drop -delay -store -storebits) shape only a flag-built scenario;
// -runs, and -seed of a document, only a simulation; -maxstates,
// -checkpoint, -resume and -chaos only the explicit engine; -workers
// only a SAT portfolio. The policy tokens are the document's
// (on-change, submodular-residual, hash-compact, …).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

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

// cmdline is mcacheck's command line: the flag values, which flags were
// set, and which the run has read so far.
type cmdline struct {
	fs        *flag.FlagSet
	set, read map[string]bool
	// built is set once the scenario is built from flags, which then
	// all apply, defaults included.
	built bool

	// The scenario's shape: read only when it is built from flags.
	agents, items, target, delay, storeBits int
	seed                                    int64
	drop                                    float64
	release                                 bool
	topology                                graph.Topology
	utility                                 mca.Utility
	rebid                                   mca.RebidMode
	store                                   explore.StoreKind

	// The source and the run.
	scenario, resume, checkpoint, chaos string
	maxStates, workers, runs            int
	timeout                             time.Duration
	trace                               bool
	cpuProfile, memProfile              string
}

// utilities maps the -utility tokens, the document's utility kinds, to
// the utilities with their default parameters.
var utilities = map[string]mca.Utility{
	mca.KindSubmodularResidual:   mca.SubmodularResidual{},
	mca.KindNonSubmodularSynergy: mca.NonSubmodularSynergy{},
	mca.KindFlat:                 mca.FlatUtility{},
	mca.KindEscalatingAttack:     mca.EscalatingUtility{},
}

func newCmdline() *cmdline {
	c := &cmdline{
		fs:       flag.NewFlagSet("mcacheck", flag.ContinueOnError),
		set:      map[string]bool{},
		read:     map[string]bool{},
		topology: graph.TopologyComplete,
		utility:  mca.SubmodularResidual{},
		rebid:    mca.RebidOnChange,
	}
	fs := c.fs
	fs.IntVar(&c.agents, "agents", 2, "number of agents")
	fs.IntVar(&c.items, "items", 2, "number of items on auction")
	fs.Func("topology", "agent network: line|ring|star|complete|random (default complete)", func(s string) error {
		return c.topology.UnmarshalText([]byte(s))
	})
	fs.Int64Var(&c.seed, "seed", 1, "seed for valuations and random topology, and of a simulation's runs")
	fs.Func("utility", "utility policy p_u: "+strings.Join(mca.UtilityKinds, "|")+" (default "+mca.KindSubmodularResidual+")", func(s string) error {
		u, ok := utilities[s]
		if !ok {
			return fmt.Errorf("unknown utility kind %q (want %s)", s, strings.Join(mca.UtilityKinds, "|"))
		}
		c.utility = u
		return nil
	})
	fs.BoolVar(&c.release, "release", true, "release-outbid policy p_RO")
	fs.Func("rebid", "Remark 1 rebid rule: on-change|never|always (default on-change)", func(s string) error {
		return c.rebid.UnmarshalText([]byte(s))
	})
	fs.IntVar(&c.target, "target", 0, "target bundle size p_T (0 = number of items)")
	fs.IntVar(&c.maxStates, "maxstates", 500000, "state exploration budget (explicit engine)")
	fs.IntVar(&c.workers, "workers", 0, "SAT portfolio members (0 = one solver, -1 = one per CPU); a scenario with a relational model only")
	fs.Func("store", "lossy seen-set store: bitstate|hash-compact (default: the exact store; lossy modes trade a bounded miss probability for memory and cannot checkpoint)", func(s string) error {
		return c.store.UnmarshalText([]byte(s))
	})
	fs.IntVar(&c.storeBits, "storebits", 0, "log2 size of the lossy seen-set store (0 = the mode's default; needs -store)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "write a resumable checkpoint to this file when the run stops on the -maxstates budget (explicit engine)")
	fs.StringVar(&c.resume, "resume", "", "resume a capped run from a checkpoint file; the scenario comes from the checkpoint (combine with a raised -maxstates)")
	fs.Float64Var(&c.drop, "drop", 0, "message drop probability (switches to seeded simulation)")
	fs.IntVar(&c.delay, "delay", 0, "message delivery delay in ticks (switches to seeded simulation)")
	fs.IntVar(&c.runs, "runs", 32, "simulated executions when a probabilistic/timed fault model is set")
	fs.DurationVar(&c.timeout, "timeout", 0, "abort the check after this long (0 = no deadline)")
	fs.StringVar(&c.scenario, "scenario", "", "verify a scenario JSON file (docs/SCENARIO_FORMAT.md) instead of building one from flags")
	fs.BoolVar(&c.trace, "trace", true, "print the counterexample trace on failure")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	fs.StringVar(&c.chaos, "chaos", "", "arm seeded fault injection on checkpoint writes (internal/chaos spec, e.g. \"seed=1,partial=0.5,flip=0.5\"); for failure-semantics testing only")
	return c
}

// mark records the named flags as read.
func (c *cmdline) mark(names ...string) {
	for _, name := range names {
		c.read[name] = true
	}
}

// take marks the named flag read and reports whether its value
// overlays the scenario: always for a flag-built scenario, otherwise
// only when the flag was set on the command line.
func (c *cmdline) take(name string) bool {
	c.mark(name)
	return c.built || c.set[name]
}

// unread returns the first flag set on the command line that the run
// did not read, or "".
func (c *cmdline) unread() (name string) {
	c.fs.Visit(func(f *flag.Flag) {
		if name == "" && !c.read[f.Name] {
			name = f.Name
		}
	})
	return name
}

func run(args []string) int {
	c := newCmdline()
	if err := c.fs.Parse(args); err != nil {
		return 2
	}
	c.fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })

	// 1. Source: exactly one of the flags, -scenario and -resume.
	var (
		s      engine.Scenario
		prior  *engine.Checkpoint
		head   string
		source string
	)
	switch {
	case c.scenario != "" && c.resume != "":
		fmt.Fprintln(os.Stderr, "mcacheck: -scenario and -resume are two scenario sources; pass one")
		return 2
	case c.resume != "":
		source = "-resume"
		data, err := os.ReadFile(c.resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if prior, err = engine.DecodeCheckpoint(data); err != nil {
			return refuseCheckpoint(c.resume, err)
		}
		s = prior.Scenario
		head = fmt.Sprintf("resuming scenario %q from %s", s.Name, c.resume)
	case c.scenario != "":
		source = "-scenario"
		c.mark("scenario")
		data, err := os.ReadFile(c.scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if s, err = engine.DecodeScenario(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		head = fmt.Sprintf("checking scenario %q from %s", s.Name, c.scenario)
	default:
		source = "flags"
		c.built = true
		c.mark("agents", "items", "topology", "seed", "utility", "release", "rebid", "target", "drop", "delay", "store")
		target := c.target
		if target <= 0 {
			target = c.items
		}
		pol := mca.Policy{Target: target, Utility: c.utility, ReleaseOutbid: c.release, Rebid: c.rebid}
		specs, err := buildSpecs(c.agents, c.items, pol, c.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		s = engine.Scenario{
			Name:       "mcacheck",
			AgentSpecs: specs,
			Graph:      graph.Build(c.topology, c.agents, c.seed),
			Explore:    explore.Options{Store: c.store},
			Faults:     netsim.Faults{Drop: c.drop, Delay: c.delay},
		}
		if c.store != explore.StoreExact && c.take("storebits") {
			s.Explore.StoreBits = c.storeBits
		}
		head = fmt.Sprintf("checking consensus: %d agents (%s), %d items, p_u=%s p_RO=%v rebid=%s",
			c.agents, c.topology, c.items, c.utility.Name(), c.release, c.rebid)
	}

	// 2. Engine and overlay: Auto routes the scenario, and the flags the
	// chosen engine reads overlay it.
	eng := engine.Auto{Workers: c.workers}.EngineFor(s)
	resumable := false
	switch e := eng.(type) {
	case engine.Explicit:
		if c.take("maxstates") {
			s.Explore.MaxStates = c.maxStates
		}
		c.mark("checkpoint", "resume")
		resumable = c.checkpoint != "" || prior != nil
	case engine.SAT:
		c.mark("workers")
	case engine.Simulation:
		if c.take("runs") {
			e.Runs = c.runs
		}
		if c.take("seed") {
			e.Seed = c.seed
		}
		eng = e
	}
	var injector *chaos.Injector
	if resumable && c.take("chaos") && c.chaos != "" {
		cfg, err := chaos.ParseSpec(c.chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcacheck:", err)
			return 2
		}
		injector = chaos.New(cfg)
	}
	c.mark("timeout", "trace", "cpuprofile", "memprofile")
	if name := c.unread(); name != "" {
		fmt.Fprintf(os.Stderr, "mcacheck: -%s does not apply to this run (scenario from %s, engine %s)\n", name, source, eng.Name())
		return 2
	}

	// 3. Verify: one call, resumable when a checkpoint is read or asked for.
	stopProfiling, err := profiling.Start(c.cpuProfile, c.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcacheck:", err)
		return 2
	}
	defer stopProfiling()
	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	fmt.Printf("%s engine=%s\n", head, eng.Name())
	var res engine.Result
	if resumable {
		var next *engine.Checkpoint
		res, next = eng.(engine.Explicit).VerifyResumable(ctx, s, prior)
		if prior != nil && errors.Is(res.Err, explore.ErrCorruptRunState) {
			return refuseCheckpoint(c.resume, res.Err)
		}
		out := c.checkpoint
		if out == "" {
			out = c.resume // refresh the checkpoint in place on a re-cap
		}
		writeCheckpoint(out, next, injector)
	} else {
		res = eng.Verify(ctx, s)
	}
	return report(res, c.trace)
}

// refuseCheckpoint reports a checkpoint that cannot be resumed. Damage
// shows at decode, or when the resume restores the run state; either
// way the file is of no further use.
func refuseCheckpoint(path string, err error) int {
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, engine.ErrCorruptCheckpoint) || errors.Is(err, explore.ErrCorruptRunState) {
		fmt.Fprintf(os.Stderr, "mcacheck: checkpoint %s is corrupt or truncated; delete it and re-verify from scratch (run without -resume)\n", path)
	}
	return 2
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
