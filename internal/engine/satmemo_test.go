package engine

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/mcamodel"
	"repro/internal/relalg"
	"repro/internal/sat"
)

// freshMemo points SAT.Verify at an empty memo with the given bounds
// for the rest of the test. Tests that call it must not be parallel.
func freshMemo(t *testing.T, families, clauses int) *translationMemo {
	t.Helper()
	old := satTranslations
	satTranslations = &translationMemo{maxFamilies: families, maxClauses: clauses}
	t.Cleanup(func() { satTranslations = old })
	return satTranslations
}

func (c *translationMemo) counts() TranslationCounts {
	return TranslationCounts{Hits: c.hits.Load(), Misses: c.misses.Load(), Uncached: c.uncached.Load()}
}

// memoScope is small enough that every check finishes in a few
// milliseconds, and large enough that each search takes 18 to 111
// conflicts with default options.
func memoScope() mcamodel.Scope {
	return mcamodel.Scope{PNodes: 2, VNodes: 1, Values: 2, States: 3, Msgs: 1, IntBitwidth: 2}
}

func buildFamily(t *testing.T, encoding string, sc mcamodel.Scope, k int) *mcamodel.Encoding {
	t.Helper()
	m, err := mcamodel.Encodings[encoding](sc)
	if err == nil && k > 0 {
		m, err = m.WithAssertState(k)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// memoOptions sets each sat.Options field away from its default, one
// at a time; MaxConflicts stops every search below its conflict count,
// so that row compares two Unknowns.
var memoOptions = []struct {
	name string
	opts sat.Options
}{
	{"default", sat.Options{}},
	{"DisableVSIDS", sat.Options{DisableVSIDS: true}},
	{"DisableRestarts", sat.Options{DisableRestarts: true}},
	{"DisablePhaseSaving", sat.Options{DisablePhaseSaving: true}},
	{"MaxConflicts", sat.Options{MaxConflicts: 10}},
	{"InvertPhase", sat.Options{InvertPhase: true}},
	{"RestartBase", sat.Options{RestartBase: 7}},
	{"RandSeed", sat.Options{RandSeed: 12345}},
	{"RandomPolarityFreq", sat.Options{RandomPolarityFreq: 0.3}},
	{"RandSeed+RandomPolarityFreq", sat.Options{RandSeed: 99, RandomPolarityFreq: 0.5}},
}

// A memo hit must answer as a fresh translation does: for both
// encodings, every assert state and each solver option, a check that
// copies the process's translation returns the status, SAT status,
// every count and the canonical result bytes of relalg.Solve on a
// freshly built model.
func TestMemoHitMatchesFreshSolve(t *testing.T) {
	memo := freshMemo(t, memoFamilies, memoClauses)
	sc := memoScope()
	ctx := context.Background()
	sawUnknown, searched, rows := false, 0, 0
	for _, enc := range []string{"naive", "optimized"} {
		for k := 0; k <= sc.States; k++ {
			// Warm the family: its first check translates.
			warm := buildFamily(t, enc, sc, k)
			if r := (SAT{}).Verify(ctx, Scenario{Name: "warm", Model: warm}); r.Status == StatusError {
				t.Fatal(r.Err)
			}
			for _, o := range memoOptions {
				name := fmt.Sprintf("%s/assert_state=%d/%s", enc, k, o.name)
				rows++
				m := buildFamily(t, enc, sc, k)
				s := Scenario{Name: name, Model: m, Solver: o.opts}
				fr := relalg.Solve(&relalg.Problem{Bounds: m.Bounds, Formula: checkFormula(m), SolverOptions: o.opts})
				want := SAT{}.satResult(ctx, &s, fr, time.Now())

				before := memo.counts()
				got := SAT{}.Verify(ctx, Scenario{Name: name, Model: buildFamily(t, enc, sc, k), Solver: o.opts})
				if after := memo.counts(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
					t.Fatalf("%s: counts %+v → %+v, want one hit", name, before, after)
				}
				if got.Status != want.Status || got.SATStatus != want.SATStatus {
					t.Errorf("%s: %v/%v, fresh %v/%v", name, got.Status, got.SATStatus, want.Status, want.SATStatus)
				}
				gs, ws := got.Stats, want.Stats
				gs.TranslateTime, gs.SolveTime, gs.Wall = 0, 0, 0
				ws.TranslateTime, ws.SolveTime, ws.Wall = 0, 0, 0
				if gs != ws {
					t.Errorf("%s: stats %+v, fresh %+v", name, gs, ws)
				}
				if g, w := fullEncode(t, got), fullEncode(t, want); !bytes.Equal(g, w) {
					t.Errorf("%s: result\n%s\nfresh\n%s", name, g, w)
				}
				if got.Stats.Conflicts > 0 {
					searched++
				}
				sawUnknown = sawUnknown || got.SATStatus == sat.StatusUnknown
			}
		}
	}
	// A few rows find their counterexample without a conflict; most
	// must compare a real search.
	if searched < rows*3/4 {
		t.Errorf("%d of %d rows met a conflict; too few compare a search", searched, rows)
	}
	if !sawUnknown {
		t.Error("no row ended Unknown; the MaxConflicts row does not reach its budget")
	}
	if c := memo.counts(); c.Misses != 8 || c.Uncached != 0 {
		t.Errorf("counts %+v, want 8 misses (2 encodings × 4 assert states) and nothing uncached", c)
	}
}

// An encoding whose exported formulas were replaced after it was built
// no longer names its formulas by its family: it is translated fresh,
// never kept, and a later check of the real family does not read it.
func TestReplacedFormulaIsNotMemoized(t *testing.T) {
	memo := freshMemo(t, memoFamilies, memoClauses)
	sc := memoScope()
	ctx := context.Background()
	first := (SAT{}).Verify(ctx, Scenario{Name: "real", Model: buildFamily(t, "optimized", sc, 0)})
	if first.SATStatus != sat.StatusSat {
		t.Fatalf("real family: %v, want a counterexample", first.SATStatus)
	}
	for _, replace := range []struct {
		name string
		edit func(m *mcamodel.Encoding)
		// want is the verdict of the edited check, or Unknown for an
		// edit that leaves no checkable model.
		want sat.Status
	}{
		// ¬true: no counterexample can exist.
		{"Consensus", func(m *mcamodel.Encoding) { m.Consensus = relalg.TrueF() }, sat.StatusUnsat},
		{"Background", func(m *mcamodel.Encoding) { m.Background = relalg.FalseF() }, sat.StatusUnsat},
		{"AssertState", func(m *mcamodel.Encoding) { m.AssertState = 2 }, sat.StatusSat},
		{"Bounds", func(m *mcamodel.Encoding) { m.Bounds = buildFamily(t, "optimized", sc, 0).Bounds }, sat.StatusUnknown},
	} {
		m := buildFamily(t, "optimized", sc, 0)
		replace.edit(m)
		if _, ok := m.Family(); ok {
			t.Errorf("%s replaced: Family still reports the built family", replace.name)
		}
		if v, err := m.WithAssertState(1); err != nil {
			t.Fatal(err)
		} else if _, ok := v.Family(); ok {
			t.Errorf("%s replaced: WithAssertState sealed the edited encoding", replace.name)
		}
		if replace.want == sat.StatusUnknown {
			continue
		}
		before := memo.counts()
		r := (SAT{}).Verify(ctx, Scenario{Name: replace.name, Model: m})
		if after := memo.counts(); after.Uncached != before.Uncached+1 || after.Hits != before.Hits || after.Misses != before.Misses {
			t.Errorf("%s replaced: counts %+v → %+v, want one uncached", replace.name, before, after)
		}
		if r.SATStatus != replace.want {
			t.Errorf("%s replaced: %v, want %v", replace.name, r.SATStatus, replace.want)
		}
	}
	if len(memo.entries) != 1 {
		t.Errorf("memo holds %d families, want only the real one", len(memo.entries))
	}
	again := (SAT{}).Verify(ctx, Scenario{Name: "real", Model: buildFamily(t, "optimized", sc, 0)})
	if again.SATStatus != sat.StatusSat {
		t.Errorf("real family after the edits: %v, want a counterexample", again.SATStatus)
	}
}

// Past either bound the oldest kept families go: the family count, and
// the clauses summed over the kept translations. A translation over the
// clause bound is used and not kept.
func TestMemoEvictsOldest(t *testing.T) {
	ctx := context.Background()
	sc := memoScope()
	check := func(m *mcamodel.Encoding) {
		t.Helper()
		if r := (SAT{}).Verify(ctx, Scenario{Name: "evict", Model: m}); r.Status == StatusError {
			t.Fatal(r.Err)
		}
	}
	families := func(memo *translationMemo) []mcamodel.Family {
		var out []mcamodel.Family
		for _, e := range memo.entries {
			out = append(out, e.family)
		}
		return out
	}
	fam := func(enc string, k int) mcamodel.Family {
		f, _ := buildFamily(t, enc, sc, k).Family()
		return f
	}

	t.Run("families", func(t *testing.T) {
		memo := freshMemo(t, 3, memoClauses)
		for k := 0; k <= 3; k++ {
			check(buildFamily(t, "naive", sc, k))
		}
		want := []mcamodel.Family{fam("naive", 1), fam("naive", 2), fam("naive", 3)}
		if got := families(memo); !slices.Equal(got, want) {
			t.Fatalf("kept %v, want %v", got, want)
		}
		check(buildFamily(t, "naive", sc, 0)) // evicted: translated again
		if c := memo.counts(); c.Misses != 5 || c.Hits != 0 {
			t.Errorf("counts %+v, want 5 misses", c)
		}
	})

	t.Run("clauses", func(t *testing.T) {
		// 1,682 clauses per naive family, 3,296 or 3,228 per optimized.
		memo := freshMemo(t, memoFamilies, 5000)
		check(buildFamily(t, "naive", sc, 0))
		check(buildFamily(t, "naive", sc, 1))
		check(buildFamily(t, "optimized", sc, 0)) // 1682+1682+3296 > 5000
		want := []mcamodel.Family{fam("naive", 1), fam("optimized", 0)}
		if got := families(memo); !slices.Equal(got, want) {
			t.Fatalf("kept %v, want %v", got, want)
		}
		if memo.clauses != 1682+3296 {
			t.Errorf("clauses %d, want %d", memo.clauses, 1682+3296)
		}
		memo.maxClauses = 3000
		check(buildFamily(t, "optimized", sc, 2)) // over the bound alone
		if got := families(memo); !slices.Equal(got, want) {
			t.Fatalf("after an oversized translation: kept %v, want %v", got, want)
		}
		if c := memo.counts(); c.Uncached != 1 || c.Misses != 3 {
			t.Errorf("counts %+v, want 3 misses and 1 uncached", c)
		}
	})
}

// Concurrent checks of one family translate it once: the others wait
// for that translation and copy it. The checks start together, at a
// scope whose translation takes long enough (≈ 26,000 clauses) that
// they all arrive while it runs. Run under -race, this also checks
// that copies and portfolio exports only read the kept solver.
func TestConcurrentVerifyTranslatesOnce(t *testing.T) {
	memo := freshMemo(t, memoFamilies, memoClauses)
	sc := mcamodel.Scope{PNodes: 3, VNodes: 2, Values: 3, States: 3, Msgs: 2, IntBitwidth: 2}
	ctx := context.Background()
	const n = 6
	models := make([]*mcamodel.Encoding, n)
	for i := range models {
		models[i] = buildFamily(t, "optimized", sc, 0)
	}
	results := make([]Result, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := SAT{}
			if i%3 == 2 {
				eng.Workers = 2
			}
			<-start
			results[i] = eng.Verify(ctx, Scenario{Name: "c", Model: models[i], Solver: sat.Options{RandSeed: uint64(i)}})
		}()
	}
	close(start)
	wg.Wait()
	if c := memo.counts(); c.Misses != 1 || c.Hits != n-1 || c.Uncached != 0 {
		t.Errorf("counts %+v, want 1 miss and %d hits", c, n-1)
	}
	for i, r := range results {
		if r.Status != StatusViolated || r.SATStatus != sat.StatusSat {
			t.Errorf("check %d: %v/%v, want violated/SAT", i, r.Status, r.SATStatus)
		}
		if i%3 != 2 && r.Stats.Conflicts != results[0].Stats.Conflicts {
			t.Errorf("check %d: %d conflicts, check 0 %d", i, r.Stats.Conflicts, results[0].Stats.Conflicts)
		}
	}
}
