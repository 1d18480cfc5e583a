package portfolio

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sat"
)

// Options configures a parallel solve.
type Options struct {
	// Workers is the number of concurrent solvers (portfolio members or
	// cube consumers). 0 defaults to GOMAXPROCS, min 2.
	Workers int
	// CubeVars selects cube-and-conquer with 2^CubeVars cubes split on
	// that many branching variables. 0 selects the pure portfolio.
	CubeVars int
	// Base is the solver configuration every member starts from; the
	// portfolio diversifies it per member.
	Base sat.Options
	// Cancel, when non-nil, cancels the whole parallel solve
	// cooperatively: every member polls it alongside the internal
	// winner-takes-all flag. A cancelled solve returns StatusUnknown.
	Cancel func() bool
}

// fanOut runs member(0..n-1) on n goroutines and returns once all have
// returned. A member that panics does so where nobody can recover, which
// would end the process: its panic is kept, the join finishes, and the
// panic is raised again here, on the goroutine that asked for the solve.
func fanOut(n int, member func(i int)) {
	var wg sync.WaitGroup
	panics := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			member(i)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// memberCancel combines the race's internal done flag with the caller's
// external cancellation hook.
func memberCancel(done *atomic.Bool, external func() bool) func() bool {
	if external == nil {
		return done.Load
	}
	return func() bool { return done.Load() || external() }
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers < 2 {
			o.Workers = 2
		}
	}
	return o
}

// Result is the outcome of a parallel solve.
type Result struct {
	Status sat.Status
	// Model is a verified satisfying assignment when Status is SAT.
	Model []bool
	// Winner is the index of the portfolio member (or cube) that
	// produced the answer; -1 when UNSAT was established collectively
	// (cube mode) or no member answered.
	Winner int
	// Stats are the winning solver's counters; when cube-and-conquer
	// establishes UNSAT collectively they aggregate all workers.
	Stats sat.Stats
	// Cubes and UnsatCubes report the cube-and-conquer split: total
	// cubes generated and how many were individually refuted. Zero in
	// portfolio mode.
	Cubes      int
	UnsatCubes int
	// Wall is the end-to-end duration of the parallel solve.
	Wall time.Duration
}

// Solve runs the strategy selected by opts: cube-and-conquer when
// CubeVars > 0, otherwise the portfolio race.
func Solve(f *sat.CNF, opts Options) Result {
	if opts.CubeVars > 0 {
		return SolveCube(f, opts)
	}
	return SolvePortfolio(f, opts)
}

// DiversifiedOptions derives n solver configurations from a base: the
// first member keeps the production defaults (so the portfolio is never
// slower than the best-known single configuration by more than
// scheduling noise), and later members vary polarity defaults, restart
// cadence, and random perturbation strength.
func DiversifiedOptions(base sat.Options, n int) []sat.Options {
	out := make([]sat.Options, n)
	for i := range out {
		o := base
		switch i % 4 {
		case 0:
			// Member 0: the reference configuration, unchanged.
		case 1:
			o.InvertPhase = !o.InvertPhase
			o.RestartBase = 64
		case 2:
			o.RestartBase = 512
			o.RandSeed = uint64(0x9e3779b9*uint32(i) + 1)
			o.RandomPolarityFreq = 0.02
		case 3:
			o.DisablePhaseSaving = true
			o.RestartBase = 32
			o.RandSeed = uint64(0x85ebca6b*uint32(i) + 1)
			o.RandomPolarityFreq = 0.05
		}
		// Beyond one full cycle, re-derive the four shapes with fresh
		// seeds; shapes without a random component get a small one so
		// the seed actually changes their search, rather than producing
		// a bit-identical duplicate of an earlier member.
		if i >= 4 {
			if o.RandomPolarityFreq == 0 {
				o.RandomPolarityFreq = 0.01
			}
			o.RandSeed += uint64(i) << 32
		}
		out[i] = o
	}
	return out
}

// SolvePortfolio races diversified solvers on the formula; the first
// SAT/UNSAT answer wins and cancels the rest.
func SolvePortfolio(f *sat.CNF, opts Options) Result {
	opts = opts.withDefaults()
	configs := DiversifiedOptions(opts.Base, opts.Workers)
	return race(len(configs), opts.Cancel, func(member int, cancel func() bool) (sat.Status, *sat.Solver) {
		s := sat.NewSolverWithOptions(configs[member])
		if err := f.LoadInto(s); err != nil {
			return sat.StatusUnknown, s
		}
		s.SetCancel(cancel)
		return s.Solve(), s
	})
}

// race is the one portfolio race, behind SolvePortfolio and
// Session.SolveAssuming: n members solve concurrently, each polling the
// cancel hook it is handed, and the first definite answer wins and
// cancels the rest. A member reports StatusUnknown when it was cancelled
// or ran out of conflict budget.
func race(n int, external func() bool, solve func(member int, cancel func() bool) (sat.Status, *sat.Solver)) Result {
	start := time.Now()
	var done atomic.Bool
	// One slot per member: nobody blocks on the send, and the first
	// result in the channel is the winner's. Later answers are
	// necessarily consistent (the solvers decided the same formula).
	answers := make(chan Result, n)
	fanOut(n, func(member int) {
		status, s := solve(member, memberCancel(&done, external))
		if status == sat.StatusUnknown {
			return
		}
		a := Result{Status: status, Stats: s.Stats(), Winner: member}
		if status == sat.StatusSat {
			a.Model = s.Model()
		}
		answers <- a
		done.Store(true)
	})
	res := Result{Status: sat.StatusUnknown, Winner: -1}
	if len(answers) > 0 {
		res = <-answers
	}
	res.Wall = time.Since(start)
	return res
}

// PickCubeVars chooses k branching variables for cube-and-conquer by a
// weighted occurrence heuristic: each variable scores the sum over its
// clauses of 2^-|clause|, favouring variables in short clauses, whose
// assignment propagates the most. Ties break toward lower indices so
// the split is deterministic.
func PickCubeVars(f *sat.CNF, k int) []sat.Var {
	score := make([]float64, f.NumVars)
	for _, c := range f.Clauses {
		if len(c) == 0 || len(c) > 30 {
			continue
		}
		w := 1.0 / float64(int(1)<<uint(len(c)))
		for _, l := range c {
			score[l.Var()] += w
		}
	}
	idx := make([]int, f.NumVars)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if score[idx[a]] != score[idx[b]] {
			return score[idx[a]] > score[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]sat.Var, k)
	for i := 0; i < k; i++ {
		out[i] = sat.Var(idx[i])
	}
	return out
}

// SolveCube runs cube-and-conquer: split on CubeVars variables into
// 2^CubeVars assumption cubes, solved concurrently by a worker pool of
// incremental solvers. A SAT cube short-circuits the race; UNSAT is
// answered only when every cube has been refuted.
func SolveCube(f *sat.CNF, opts Options) Result {
	opts = opts.withDefaults()
	start := time.Now()
	k := opts.CubeVars
	if k > 20 {
		k = 20 // 2^20 cubes is already far past useful granularity
	}
	vars := PickCubeVars(f, k)
	k = len(vars) // formulas with fewer variables than k shrink the split
	numCubes := 1 << uint(k)

	cubes := make(chan int, numCubes)
	for c := 0; c < numCubes; c++ {
		cubes <- c
	}
	close(cubes)

	var done atomic.Bool
	var unsatCubes atomic.Int64
	workers := opts.Workers
	if workers > numCubes {
		workers = numCubes
	}
	// One slot per worker: a worker answers at most once, then returns.
	answers := make(chan Result, workers)
	workerStats := make([]sat.Stats, workers)
	fanOut(workers, func(w int) {
		s := sat.NewSolverWithOptions(opts.Base)
		defer func() { workerStats[w] = s.Stats() }()
		if err := f.LoadInto(s); err != nil {
			return
		}
		s.SetCancel(memberCancel(&done, opts.Cancel))
		assumptions := make([]sat.Lit, k)
		for cube := range cubes {
			if done.Load() {
				return
			}
			for bit := 0; bit < k; bit++ {
				assumptions[bit] = sat.MkLit(vars[bit], cube&(1<<uint(bit)) != 0)
			}
			switch s.SolveAssuming(assumptions...) {
			case sat.StatusSat:
				answers <- Result{Status: sat.StatusSat, Model: s.Model(), Stats: s.Stats(), Winner: cube}
				done.Store(true)
				return
			case sat.StatusUnsat:
				unsatCubes.Add(1)
			case sat.StatusUnknown:
				return // cancelled mid-cube
			}
		}
	})

	res := Result{Status: sat.StatusUnknown, Winner: -1}
	if len(answers) > 0 {
		res = <-answers
	}
	res.Cubes = numCubes
	res.UnsatCubes = int(unsatCubes.Load())
	if res.Status == sat.StatusUnknown && res.UnsatCubes == numCubes {
		// Every cube refuted: the disjunction of the cubes is a
		// tautology over the split variables, so the formula is UNSAT.
		res.Status = sat.StatusUnsat
	}
	if res.Winner == -1 {
		// No single winner: report the aggregate effort of the proof.
		for _, st := range workerStats {
			res.Stats.Add(st)
		}
	}
	res.Wall = time.Since(start)
	return res
}
