package engine

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/mcamodel"
	"repro/internal/relalg"
)

// A SAT check names its model by three fields — encoding, scope and
// assert state (mcamodel.Family) — and everything else it carries is
// solver options, which do not change the CNF. So the process
// translates each family once and every check of it searches a copy of
// that translation (relalg.Translation.Solve): the translation is a
// pure function of the family, and its copy searches exactly as a fresh
// translation would.

// The memo's bounds. They are constants, not options: a kept
// translation costs 65–80 bytes a clause (2.8 MB at the benchmark
// scope), so the clause budget holds the memo under about 85 MB
// whatever the families.
const (
	// memoFamilies bounds how many families the memo keeps.
	memoFamilies = 8
	// memoClauses bounds the clauses the memo keeps, summed over its
	// families; a larger translation is used once and not kept.
	memoClauses = 1 << 20
)

// satTranslations is the process-wide memo SAT.Verify reads.
var satTranslations = &translationMemo{maxFamilies: memoFamilies, maxClauses: memoClauses}

// translationMemo keeps the translations of recently checked families,
// oldest first; past either bound the oldest kept ones go.
type translationMemo struct {
	maxFamilies, maxClauses int

	mu      sync.Mutex
	entries []*memoEntry
	clauses int // summed over the entries whose translation is done

	hits, misses, uncached atomic.Uint64
}

// memoEntry is one family's translation; t is set, under the memo's
// lock, before ready closes. A nil t after ready means the translation
// panicked.
type memoEntry struct {
	family mcamodel.Family
	ready  chan struct{}
	t      *relalg.Translation
}

// TranslationCounts counts how SAT checks came by their translation:
// Hits copied one the process kept, Misses translated and kept it, and
// Uncached translated without keeping — a model whose formulas were
// replaced after it was built, or a translation over the memo's bound.
type TranslationCounts struct {
	Hits, Misses, Uncached uint64
}

// SATTranslations reports the process's SAT translation counts.
func SATTranslations() TranslationCounts {
	return TranslationCounts{
		Hits:     satTranslations.hits.Load(),
		Misses:   satTranslations.misses.Load(),
		Uncached: satTranslations.uncached.Load(),
	}
}

// checkFormula is Alloy's check form of the model: a model of facts ∧
// ¬assertion is a counterexample to the assertion.
func checkFormula(m *mcamodel.Encoding) relalg.Formula {
	return relalg.And(m.Background, relalg.Not(m.Consensus))
}

// translation returns the translation of m's check formula. Checks of
// one family that arrive while it is being translated wait for that
// translation instead of making their own.
func (c *translationMemo) translation(m *mcamodel.Encoding) *relalg.Translation {
	fam, ok := m.Family()
	if !ok {
		c.uncached.Add(1)
		return relalg.Translate(m.Bounds, checkFormula(m))
	}
	c.mu.Lock()
	for _, e := range c.entries {
		if e.family == fam {
			c.mu.Unlock()
			<-e.ready
			if e.t == nil {
				c.uncached.Add(1)
				return relalg.Translate(m.Bounds, checkFormula(m))
			}
			c.hits.Add(1)
			return e.t
		}
	}
	e := &memoEntry{family: fam, ready: make(chan struct{})}
	c.entries = append(c.entries, e)
	c.mu.Unlock()

	var t *relalg.Translation
	defer func() { c.done(e, t) }()
	t = relalg.Translate(m.Bounds, checkFormula(m))
	return t
}

// done publishes e's translation t (nil if it panicked), keeps it if it
// fits, and evicts the oldest finished entries past the bounds.
func (c *translationMemo) done(e *memoEntry, t *relalg.Translation) {
	c.mu.Lock()
	e.t = t
	if t == nil || t.Stats().Clauses > c.maxClauses {
		c.entries = slices.DeleteFunc(c.entries, func(x *memoEntry) bool { return x == e })
		c.uncached.Add(1)
	} else {
		c.clauses += t.Stats().Clauses
		c.misses.Add(1)
		for i := 0; i < len(c.entries) && (len(c.entries) > c.maxFamilies || c.clauses > c.maxClauses); {
			if old := c.entries[i]; old != e && old.t != nil {
				c.clauses -= old.t.Stats().Clauses
				c.entries = slices.Delete(c.entries, i, i+1)
				continue
			}
			i++
		}
	}
	c.mu.Unlock()
	close(e.ready)
}
