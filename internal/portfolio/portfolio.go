package portfolio

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sat"
)

// Options configures a portfolio race.
type Options struct {
	// Workers is the number of racing members. 0 defaults to GOMAXPROCS,
	// min 2.
	Workers int
	// Base is the solver configuration every member starts from; the
	// portfolio diversifies it per member.
	Base sat.Options
	// Cancel, when non-nil, cancels the whole race cooperatively: every
	// member polls it alongside the internal winner-takes-all flag. A
	// cancelled race returns StatusUnknown.
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

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers < 2 {
			o.Workers = 2
		}
	}
	return o
}

// Result is the outcome of a portfolio race.
type Result struct {
	Status sat.Status
	// Model is a verified satisfying assignment when Status is SAT.
	Model []bool
	// Winner is the index of the member that produced the answer; -1
	// when no member answered.
	Winner int
	// Stats are the winning member's counters.
	Stats sat.Stats
}

// diversifiedOptions derives n solver configurations from a base: the
// first member keeps the production defaults (so the portfolio is never
// slower than the best-known single configuration by more than
// scheduling noise), and later members vary polarity defaults, restart
// cadence, and random perturbation strength.
func diversifiedOptions(base sat.Options, n int) []sat.Options {
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
// SAT/UNSAT answer wins and cancels the rest. A member that was
// cancelled or ran out of conflict budget reports nothing.
func SolvePortfolio(f *sat.CNF, opts Options) Result {
	opts = opts.withDefaults()
	configs := diversifiedOptions(opts.Base, opts.Workers)
	var done atomic.Bool
	cancel := done.Load
	if opts.Cancel != nil {
		cancel = func() bool { return done.Load() || opts.Cancel() }
	}
	// One slot per member: nobody blocks on the send, and the first
	// result in the channel is the winner's. Later answers are
	// necessarily consistent (the solvers decided the same formula).
	answers := make(chan Result, len(configs))
	fanOut(len(configs), func(member int) {
		s := sat.NewSolverWithOptions(configs[member])
		if err := f.LoadInto(s); err != nil {
			return
		}
		s.SetCancel(cancel)
		status := s.Solve()
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
	if len(answers) == 0 {
		return Result{Status: sat.StatusUnknown, Winner: -1}
	}
	return <-answers
}
