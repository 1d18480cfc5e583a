// Command mcafuzz manufactures verification workloads and hunts for
// checker disagreements: it generates a seeded random scenario corpus
// from a profile (docs/FUZZING.md), verifies every scenario on a panel
// of engine adapters through the cache-aware differential oracle, and
// reports any scenario on which the checkers' verdicts are mutually
// inconsistent. With -shrink each disagreement is minimized by greedy
// delta debugging before being written out; flagged (and, with -dump,
// all generated) scenarios land in -out as canonical scenario JSON,
// ready for mcacheck -scenario, mcaserved, or a regression corpus.
//
// With -coverage the blind sweep becomes a feedback loop: scenarios
// that push an engine's state store into a new quantized shape
// (docs/FUZZING.md, "Coverage-guided generation") join a corpus, and
// later rounds mutate corpus entries instead of sampling blind —
// -rounds splits the -n budget into generations (without -coverage it
// is a usage error), and per-round corpus stats stream to stdout as
// the loop runs.
//
// Everything is reproducible: the same -seed yields byte-identical
// scenarios and identical verdicts at any -workers value, so a corpus
// line from CI replays locally. Coverage-guided corpora replay the
// same way from (profile, seed, rounds).
//
// Usage:
//
//	mcafuzz -seed 1 -n 25
//	mcafuzz -seed 7 -n 500 -profile examples/scenarios/fuzz-profile.json
//	mcafuzz -engines explicit,explicit-parallel,simulation -n 100
//	mcafuzz -seed 3 -n 200 -shrink -out corpus/
//	mcafuzz -n 1000 -cachedir /tmp/mcafuzz-cache   # warm re-runs
//	mcafuzz -coverage -seed 1 -rounds 5 -n 40 -out corpus/
//
// Exit code 0 means every scenario's verdicts were consistent, 1 means
// disagreements were found, 2 means a usage or I/O error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("mcafuzz", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "corpus seed; same seed, same corpus and verdicts")
	n := fs.Int("n", 100, "number of scenarios to generate")
	profilePath := fs.String("profile", "", "generator profile JSON (docs/FUZZING.md); empty = built-in default profile")
	enginesSpec := fs.String("engines", "explicit,simulation,sat", "comma-separated engine panel: auto|explicit|explicit-parallel|simulation|sat|sat-portfolio")
	workers := fs.Int("workers", 0, "scenario worker pool size (0 = one per CPU; never affects verdicts)")
	coverage := fs.Bool("coverage", false, "coverage-guided generation: mutate scenarios that reach new store-signature buckets instead of sampling blind")
	rounds := fs.Int("rounds", 4, "coverage-guided generations; the -n budget is split evenly across them (requires -coverage)")
	shrink := fs.Bool("shrink", false, "minimize each disagreement by delta debugging before writing it")
	outDir := fs.String("out", "", "directory for corpus files (created if absent); disagreements are always written here when set")
	dump := fs.Bool("dump", false, "also write every generated scenario to -out, not just disagreements")
	cacheDir := fs.String("cachedir", "", "persistent result-cache directory; re-runs of the same corpus become lookups")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcafuzz:", err)
		return 2
	}
	defer stopProfiling()
	if (*shrink || *dump) && *outDir == "" {
		fmt.Fprintln(os.Stderr, "mcafuzz: -shrink and -dump write corpus files and require -out")
		return 2
	}
	roundsSet := false
	fs.Visit(func(f *flag.Flag) { roundsSet = roundsSet || f.Name == "rounds" })
	if roundsSet && !*coverage {
		fmt.Fprintln(os.Stderr, "mcafuzz: -rounds splits a coverage-guided run into generations and requires -coverage")
		return 2
	}

	profile := gen.DefaultProfile()
	profileName := "default"
	if *profilePath != "" {
		data, err := os.ReadFile(*profilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		profile, err = gen.DecodeProfile(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		profileName = *profilePath
	}
	engines, err := gen.ParseEngines(*enginesSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var resultCache engine.ResultCache
	if *cacheDir != "" {
		c, err := cache.New(cache.Options{Dir: *cacheDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		resultCache = c
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	ctx := context.Background()
	opts := gen.DiffOptions{Engines: engines, Cache: resultCache, Workers: *workers}
	if *coverage {
		return runCoverage(ctx, out, coverageParams{
			profile: profile, profileName: profileName, enginesSpec: *enginesSpec,
			seed: *seed, n: *n, rounds: *rounds,
			outDir: *outDir, dump: *dump, shrink: *shrink, diff: opts,
		})
	}

	scenarios, err := gen.Generate(profile, *seed, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(out, "mcafuzz: seed=%d n=%d profile=%s engines=%s\n", *seed, *n, profileName, *enginesSpec)

	results, sum := gen.DiffSweep(ctx, scenarios, opts)

	code := 0
	for _, r := range results {
		fmt.Fprintf(out, "%04d %s %s\n", r.Index, r.Scenario.Name, formatLegs(r))
		if *dump && *outDir != "" {
			if err := writeScenario(*outDir, r.Scenario.Name+".json", &r.Scenario); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
		if r.Agree {
			continue
		}
		code = 1
		for _, reason := range r.Reasons {
			fmt.Fprintf(out, "  disagreement: %s\n", reason)
		}
		if *outDir == "" {
			continue
		}
		if !*dump { // -dump already wrote this scenario above
			if err := writeScenario(*outDir, r.Scenario.Name+".json", &r.Scenario); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
		if *shrink {
			min, stats := shrinkDisagreement(ctx, r.Scenario, opts)
			if err := writeScenario(*outDir, r.Scenario.Name+".min.json", &min); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			fmt.Fprintf(out, "  shrunk: size %d -> %d (%d candidates tried)\n", stats.From, stats.To, stats.Tried)
		}
	}
	fmt.Fprintf(out, "summary: scenarios=%d disagreements=%d legs=%d holds=%d violated=%d inconclusive=%d errors=%d\n",
		sum.Scenarios, sum.Disagreements, sum.Legs, sum.Holds, sum.Violated, sum.Inconclusive, sum.Errors)
	return code
}

// coverageParams carries the -coverage mode's configuration.
type coverageParams struct {
	profile     gen.Profile
	profileName string
	enginesSpec string
	seed        int64
	n           int
	rounds      int
	outDir      string
	dump        bool
	shrink      bool
	diff        gen.DiffOptions
}

// runCoverage drives the coverage-guided loop: the -n budget splits
// evenly across -rounds generations, per-round corpus stats stream as
// the loop runs, and the discovered corpus (plus any disagreements,
// shrunk on request) lands in -out.
func runCoverage(ctx context.Context, out io.Writer, p coverageParams) int {
	if p.rounds <= 0 {
		fmt.Fprintln(os.Stderr, "mcafuzz: -rounds must be positive")
		return 2
	}
	perRound := p.n / p.rounds
	if perRound < 1 {
		perRound = 1
	}
	fmt.Fprintf(out, "mcafuzz: coverage seed=%d rounds=%d per-round=%d profile=%s engines=%s\n",
		p.seed, p.rounds, perRound, p.profileName, p.enginesSpec)
	res, err := gen.FuzzCoverage(ctx, gen.CoverageOptions{
		Profile:  p.profile,
		Seed:     p.seed,
		Rounds:   p.rounds,
		PerRound: perRound,
		Diff:     p.diff,
	}, func(rs gen.RoundStats) {
		fmt.Fprintf(out, "round %d: scenarios=%d new-buckets=%d buckets=%d corpus=%d disagreements=%d\n",
			rs.Round, rs.Scenarios, rs.NewBuckets, rs.Buckets, rs.Corpus, rs.Disagreements)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if p.dump && p.outDir != "" {
		for i := range res.Corpus {
			if err := writeScenario(p.outDir, res.Corpus[i].Name+".json", &res.Corpus[i]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
	}
	code := 0
	for i := range res.Disagreements {
		r := &res.Disagreements[i]
		code = 1
		fmt.Fprintf(out, "%s %s\n", r.Scenario.Name, formatLegs(*r))
		for _, reason := range r.Reasons {
			fmt.Fprintf(out, "  disagreement: %s\n", reason)
		}
		if p.outDir == "" {
			continue
		}
		// Always written: a disagreeing scenario is not necessarily in
		// the coverage corpus, so -dump alone may not have caught it.
		if err := writeScenario(p.outDir, r.Scenario.Name+".json", &r.Scenario); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if p.shrink {
			min, stats := shrinkDisagreement(ctx, r.Scenario, p.diff)
			if err := writeScenario(p.outDir, r.Scenario.Name+".min.json", &min); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			fmt.Fprintf(out, "  shrunk: size %d -> %d (%d candidates tried)\n", stats.From, stats.To, stats.Tried)
		}
	}
	total := 0
	for _, rs := range res.Rounds {
		total += rs.Scenarios
	}
	fmt.Fprintf(out, "summary: rounds=%d scenarios=%d buckets=%d corpus=%d disagreements=%d\n",
		len(res.Rounds), total, len(res.Buckets), len(res.Corpus), len(res.Disagreements))
	return code
}

// formatLegs renders one scenario's verdicts: engine=status pairs in
// panel order, then the oracle's call. Only deterministic fields are
// printed, which is what keeps mcafuzz output byte-identical at any
// worker count.
func formatLegs(r gen.DiffResult) string {
	var b strings.Builder
	for _, l := range r.Legs {
		fmt.Fprintf(&b, "%s=%v ", l.Engine, l.Result.Status)
	}
	if len(r.Legs) == 0 {
		b.WriteString("(no applicable engines) ")
	}
	if r.Agree {
		b.WriteString("ok")
	} else {
		b.WriteString("DISAGREE")
	}
	return b.String()
}

// shrinkDisagreement minimizes a flagged scenario while the panel still
// disagrees on it.
func shrinkDisagreement(ctx context.Context, s engine.Scenario, opts gen.DiffOptions) (engine.Scenario, gen.ShrinkStats) {
	keep := func(c engine.Scenario) bool {
		return !gen.DiffVerify(ctx, c, opts).Agree
	}
	return gen.Shrink(s, keep, gen.ShrinkOptions{MaxTried: 300})
}

// writeScenario writes one canonical scenario document.
func writeScenario(dir, name string, s *engine.Scenario) error {
	data, err := engine.EncodeScenario(s)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
