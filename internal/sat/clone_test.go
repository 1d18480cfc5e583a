package sat

import (
	"reflect"
	"slices"
	"testing"
)

// cloneOptions sets each Options field away from its default, the
// clause-database seams included, so deletion and compaction run on the
// copies too.
var cloneOptions = []Options{
	{},
	{DisableVSIDS: true},
	{DisableRestarts: true},
	{DisablePhaseSaving: true},
	{MaxConflicts: 20},
	{InvertPhase: true},
	{RestartBase: 5},
	{RandSeed: 3},
	{RandomPolarityFreq: 0.3},
	{RandSeed: 11, RandomPolarityFreq: 0.6, InvertPhase: true},
	{disableLBD: true},
	{coreLBD: 1, gcFrac: 0.01},
}

// withUnits prefixes a formula with root-level units, so a copy carries
// root assignments and the propagation counted while adding clauses.
func withUnits(f *CNF) *CNF {
	out := &CNF{NumVars: f.NumVars}
	out.AddClause(PosLit(0))
	out.AddClause(NegLit(Var(f.NumVars - 1)))
	out.Clauses = append(out.Clauses, f.Clauses...)
	return out
}

// A copy of a solver that has not searched searches exactly as a fresh
// solver built with the copy's options: same status, every counter and
// the same model, for every option and on every instance — and however
// often the original is copied, since searching a copy leaves the
// original as it was.
func TestCloneSearchesLikeFresh(t *testing.T) {
	instances := map[string]*CNF{
		"php6":          PigeonholeCNF(6),
		"random/sat":    randomCNF(60, 240, 3, 1),
		"random/unsat":  randomCNF(50, 260, 3, 2),
		"random/units":  withUnits(randomCNF(60, 250, 3, 3)),
		"random/mixed":  randomCNF(40, 160, 4, 4),
		"php5":          PigeonholeCNF(5),
		"random/narrow": randomCNF(30, 100, 2, 5),
	}
	for name, f := range instances {
		base := NewSolver()
		if err := f.LoadInto(base); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for _, opts := range cloneOptions {
				fresh := NewSolverWithOptions(opts)
				if err := f.LoadInto(fresh); err != nil {
					t.Fatal(err)
				}
				want := fresh.Solve()
				c := base.Clone(opts)
				got := c.Solve()
				if got != want || c.Stats() != fresh.Stats() {
					t.Fatalf("%s %+v pass %d: %v %+v, fresh %v %+v", name, opts, pass, got, c.Stats(), want, fresh.Stats())
				}
				if got == StatusSat && !slices.Equal(c.Model(), fresh.Model()) {
					t.Fatalf("%s %+v pass %d: models differ", name, opts, pass)
				}
			}
		}
	}
}

// A copy of a solver whose root level is already contradictory answers
// UNSAT, as the original would.
func TestCloneOfUnsatRoot(t *testing.T) {
	s := NewSolver()
	v := s.NewVar()
	mustAdd(t, s, PosLit(v))
	mustAdd(t, s, NegLit(v))
	if got := s.Clone(Options{InvertPhase: true}).Solve(); got != StatusUnsat {
		t.Fatalf("copy of a root-unsat solver: %v", got)
	}
}

// Clone names every field of Solver. A field added to the solver must
// be copied by Clone, or left out there with a reason, and then listed
// here.
func TestCloneCoversEveryField(t *testing.T) {
	handled := map[string]bool{
		// copied
		"opts": true, "ca": true, "clauses": true, "bins": true, "learnts": true,
		"watches": true, "binWatches": true, "vals": true, "level": true,
		"reason": true, "activity": true, "phase": true, "trail": true,
		"trailLim": true, "qhead": true, "order": true, "varInc": true,
		"claInc": true, "ok": true, "stats": true, "rng": true, "conflCr": true,
		"conflBin": true, "seen": true, "lbdSeen": true, "lbdStamp": true,
		// dropped: a copy has no cancellation check
		"cancelled": true,
		// scratch buffers, empty between calls
		"analyzeCl": true, "clearList": true, "reduceCl": true, "addCl": true,
	}
	typ := reflect.TypeOf(Solver{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !handled[name] {
			t.Errorf("Solver.%s is new: copy it in Clone (or say why not) and list it here", name)
		}
	}
}

// NewVars makes the solver NewVar calls make, growing each slice once.
func TestNewVarsMatchesNewVar(t *testing.T) {
	for _, opts := range []Options{{}, {InvertPhase: true}} {
		a, b := NewSolverWithOptions(opts), NewSolverWithOptions(opts)
		a.NewVar()
		b.NewVar()
		if first := a.NewVars(37); first != 1 {
			t.Fatalf("NewVars returned %d, want 1", first)
		}
		for i := 0; i < 37; i++ {
			b.NewVar()
		}
		b.Grow(100) // capacity only
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v: NewVars(37) and 37 NewVar calls built different solvers", opts)
		}
	}
}
