package gen

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/netsim"
	"repro/internal/sat"
)

// Size measures a scenario for the shrinker: a weighted count of agents,
// items, edges, fault-model components, non-default exploration options,
// and the relational model. Shrink only ever accepts candidates with
// strictly smaller Size, which both defines "minimal" and guarantees
// termination.
func Size(s *engine.Scenario) int {
	n := 8 * len(s.AgentSpecs)
	for _, cfg := range s.AgentSpecs {
		n += 4 * cfg.Items
	}
	if s.Graph != nil {
		n += s.Graph.M()
	}
	f := s.Faults
	if f.Drop > 0 {
		n++
	}
	if f.Delay > 0 {
		n++
	}
	if f.Duplicate > 0 {
		n++
	}
	if f.Reorder > 0 {
		n++
	}
	n += len(f.DropEdge) + len(f.DelayEdge) + len(f.Partitions)
	if f.HealAfter > 0 {
		n++
	}
	o := s.Explore
	if o.DuplicateDeliveries {
		n++
	}
	if o.QueueDepth != 0 {
		n++
	}
	if o.DisableVisitedSet {
		n++
	}
	if o.Bound != 0 || o.BoundSlack != 0 || o.HardLimitFactor != 0 {
		n++
	}
	if s.Model != nil {
		n += 6
	}
	if s.Solver != (sat.Options{}) {
		n++
	}
	return n
}

// ShrinkStats counts the shrinker's work.
type ShrinkStats struct {
	// Tried is the number of candidate scenarios the predicate judged.
	Tried int
	// Accepted is the number of shrinking steps that stuck.
	Accepted int
	// From and To are the Size before and after.
	From, To int
}

// ShrinkOptions tunes Shrink.
type ShrinkOptions struct {
	// MaxTried caps predicate evaluations (default 2000); the shrink
	// returns its best-so-far when the budget runs out.
	MaxTried int
}

func (o ShrinkOptions) withDefaults() ShrinkOptions {
	if o.MaxTried <= 0 {
		o.MaxTried = 2000
	}
	return o
}

// Shrink greedily minimizes a scenario while keep stays true: it tries
// structural reductions — remove an agent, remove an item, prune an
// edge, zero a fault-model component, reset an exploration option, drop
// the relational model or solver tuning — and accepts the first
// reduction the predicate keeps, restarting until a full pass accepts
// nothing. keep is a precondition on the input: Shrink never evaluates
// keep(s) itself (ShrinkFailure does, and errors when the input does
// not fail), it only guarantees that every accepted reduction — and
// therefore the result — satisfies keep. The result is never larger
// than the input, and Shrink is deterministic: same scenario and
// predicate behaviour, same minimized scenario.
//
// A scenario without agents (model-only), or one that is not well
// formed (the reductions rely on engine.Scenario.Validate's rules), is
// returned unchanged.
func Shrink(s engine.Scenario, keep func(engine.Scenario) bool, opts ShrinkOptions) (engine.Scenario, ShrinkStats) {
	opts = opts.withDefaults()
	stats := ShrinkStats{From: Size(&s), To: Size(&s)}
	if len(s.AgentSpecs) == 0 || s.Validate() != nil {
		return s, stats
	}
	cur := copyScenario(s)
	for {
		accepted := false
		for _, cand := range candidates(cur) {
			if stats.Tried >= opts.MaxTried {
				stats.To = Size(&cur)
				return cur, stats
			}
			if Size(&cand) >= Size(&cur) {
				continue
			}
			stats.Tried++
			if keep(cand) {
				cur = cand
				stats.Accepted++
				accepted = true
				break
			}
		}
		if !accepted {
			stats.To = Size(&cur)
			return cur, stats
		}
	}
}

// ShrinkFailure minimizes a failing scenario with respect to an engine:
// the shrunk scenario still produces the same Status and dynamic
// Violation kind on eng. It errors when the input does not fail (there
// is nothing to reproduce).
func ShrinkFailure(ctx context.Context, s engine.Scenario, eng engine.Engine, opts ShrinkOptions) (engine.Scenario, ShrinkStats, error) {
	if eng == nil {
		eng = engine.Auto{}
	}
	ref := eng.Verify(ctx, s)
	if ref.Status != engine.StatusViolated {
		return s, ShrinkStats{}, fmt.Errorf("gen: scenario %q does not fail on %s (status %v); nothing to shrink", s.Name, eng.Name(), ref.Status)
	}
	keep := func(c engine.Scenario) bool {
		r := eng.Verify(ctx, c)
		return r.Status == ref.Status && r.Violation == ref.Violation
	}
	out, stats := Shrink(s, keep, opts)
	return out, stats, nil
}

// candidates enumerates one-step reductions of s in a fixed order, most
// reductive first. Every candidate is an independent deep copy.
func candidates(s engine.Scenario) []engine.Scenario {
	var out []engine.Scenario
	// Drop one agent (with its graph node and fault references).
	if len(s.AgentSpecs) > 1 {
		for i := range s.AgentSpecs {
			out = append(out, dropAgent(s, i))
		}
	}
	// Drop one auctioned item everywhere (every agent has the same
	// item count: engine.Scenario.Validate).
	if items := s.AgentSpecs[0].Items; items > 1 {
		for j := 0; j < items; j++ {
			out = append(out, dropItem(s, j))
		}
	}
	// Clear the whole fault model in one step, then component-wise.
	if !s.Faults.None() || s.Faults.HealAfter != 0 {
		c := copyScenario(s)
		c.Faults = netsim.Faults{}
		out = append(out, c)
	}
	if s.Faults.Drop > 0 {
		c := copyScenario(s)
		c.Faults.Drop = 0
		out = append(out, c)
	}
	if s.Faults.Delay > 0 {
		c := copyScenario(s)
		c.Faults.Delay = 0
		out = append(out, c)
	}
	if s.Faults.Duplicate > 0 {
		c := copyScenario(s)
		c.Faults.Duplicate = 0
		out = append(out, c)
	}
	if s.Faults.Reorder > 0 {
		c := copyScenario(s)
		c.Faults.Reorder = 0
		out = append(out, c)
	}
	if len(s.Faults.Partitions) > 0 {
		c := copyScenario(s)
		c.Faults.Partitions = nil
		c.Faults.HealAfter = 0
		out = append(out, c)
	}
	if s.Faults.HealAfter > 0 {
		c := copyScenario(s)
		c.Faults.HealAfter = 0
		out = append(out, c)
	}
	for _, e := range sortedEdges(s.Faults.DropEdge) {
		c := copyScenario(s)
		delete(c.Faults.DropEdge, e)
		if len(c.Faults.DropEdge) == 0 {
			c.Faults.DropEdge = nil
		}
		out = append(out, c)
	}
	for _, e := range sortedEdges(s.Faults.DelayEdge) {
		c := copyScenario(s)
		delete(c.Faults.DelayEdge, e)
		if len(c.Faults.DelayEdge) == 0 {
			c.Faults.DelayEdge = nil
		}
		out = append(out, c)
	}
	// Prune one graph edge.
	if s.Graph != nil {
		for _, e := range s.Graph.Edges() {
			c := copyScenario(s)
			c.Graph.RemoveEdge(e.U, e.V)
			out = append(out, c)
		}
	}
	// Reset exploration options toward engine defaults.
	if s.Explore.DuplicateDeliveries {
		c := copyScenario(s)
		c.Explore.DuplicateDeliveries = false
		out = append(out, c)
	}
	if s.Explore.QueueDepth != 0 {
		c := copyScenario(s)
		c.Explore.QueueDepth = 0
		out = append(out, c)
	}
	if s.Explore.DisableVisitedSet {
		c := copyScenario(s)
		c.Explore.DisableVisitedSet = false
		out = append(out, c)
	}
	if s.Explore.Bound != 0 || s.Explore.BoundSlack != 0 || s.Explore.HardLimitFactor != 0 {
		c := copyScenario(s)
		c.Explore.Bound, c.Explore.BoundSlack, c.Explore.HardLimitFactor = 0, 0, 0
		out = append(out, c)
	}
	// Drop the relational model and solver tuning.
	if s.Model != nil {
		c := copyScenario(s)
		c.Model = nil
		out = append(out, c)
	}
	if s.Solver != (sat.Options{}) {
		c := copyScenario(s)
		c.Solver = sat.Options{}
		out = append(out, c)
	}
	return out
}

// sortedEdges returns a fault map's keys in (From, To) order, so the
// candidate sequence — and therefore the shrink result — never depends
// on Go's randomized map iteration.
func sortedEdges[V any](m map[netsim.Edge]V) []netsim.Edge {
	out := make([]netsim.Edge, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// dropAgent removes agent k: specs re-index, the graph loses node k,
// and fault references to node k are remapped or discarded.
func dropAgent(s engine.Scenario, k int) engine.Scenario {
	c := copyScenario(s)
	specs := make([]mca.Config, 0, len(c.AgentSpecs)-1)
	for i, cfg := range c.AgentSpecs {
		if i == k {
			continue
		}
		cfg.ID = mca.AgentID(len(specs))
		specs = append(specs, cfg)
	}
	c.AgentSpecs = specs

	remap := func(n int) (int, bool) {
		switch {
		case n == k:
			return 0, false
		case n > k:
			return n - 1, true
		default:
			return n, true
		}
	}
	if c.Graph != nil {
		g := graph.New(c.Graph.N() - 1)
		for _, e := range c.Graph.Edges() {
			u, uok := remap(e.U)
			v, vok := remap(e.V)
			if uok && vok {
				g.AddWeightedEdge(u, v, e.Weight)
			}
		}
		c.Graph = g
	}
	c.Faults = remapFaults(c.Faults, remap)
	return c
}

// remapFaults rewrites node references after an agent removal; entries
// naming the removed node disappear.
func remapFaults(f netsim.Faults, remap func(int) (int, bool)) netsim.Faults {
	if len(f.DropEdge) > 0 {
		m := map[netsim.Edge]float64{}
		for e, p := range f.DropEdge {
			from, fok := remap(int(e.From))
			to, tok := remap(int(e.To))
			if fok && tok {
				m[netsim.Edge{From: mca.AgentID(from), To: mca.AgentID(to)}] = p
			}
		}
		f.DropEdge = m
		if len(m) == 0 {
			f.DropEdge = nil
		}
	}
	if len(f.DelayEdge) > 0 {
		m := map[netsim.Edge]int{}
		for e, d := range f.DelayEdge {
			from, fok := remap(int(e.From))
			to, tok := remap(int(e.To))
			if fok && tok {
				m[netsim.Edge{From: mca.AgentID(from), To: mca.AgentID(to)}] = d
			}
		}
		f.DelayEdge = m
		if len(m) == 0 {
			f.DelayEdge = nil
		}
	}
	if len(f.Partitions) > 0 {
		var blocks [][]int
		for _, block := range f.Partitions {
			var nb []int
			for _, n := range block {
				if v, ok := remap(n); ok {
					nb = append(nb, v)
				}
			}
			if len(nb) > 0 {
				blocks = append(blocks, nb)
			}
		}
		f.Partitions = blocks
		if len(blocks) < 2 {
			// A single surviving block partitions nothing.
			f.Partitions = nil
			f.HealAfter = 0
		}
	}
	return f
}

// dropItem removes item j from every agent's valuation (and demand)
// vector, clamping bundle targets into the smaller item range.
func dropItem(s engine.Scenario, j int) engine.Scenario {
	c := copyScenario(s)
	for i := range c.AgentSpecs {
		cfg := &c.AgentSpecs[i]
		cfg.Items--
		cfg.Base = append(append([]int64{}, cfg.Base[:j]...), cfg.Base[j+1:]...)
		if cfg.Demands != nil {
			cfg.Demands = append(append([]int64{}, cfg.Demands[:j]...), cfg.Demands[j+1:]...)
		}
		if cfg.Policy.Target > cfg.Items {
			cfg.Policy.Target = cfg.Items
		}
	}
	return c
}

// copyScenario deep-copies everything the shrinker mutates: specs and
// their slices, the graph, and the fault model. The exploration options
// are a value, copied with the struct; the relational model is shared
// (engines treat it as immutable data).
func copyScenario(s engine.Scenario) engine.Scenario {
	c := s
	if len(s.AgentSpecs) > 0 {
		c.AgentSpecs = make([]mca.Config, len(s.AgentSpecs))
		for i, cfg := range s.AgentSpecs {
			cfg.Base = append([]int64(nil), cfg.Base...)
			if cfg.Demands != nil {
				cfg.Demands = append([]int64(nil), cfg.Demands...)
			}
			c.AgentSpecs[i] = cfg
		}
	}
	if s.Graph != nil {
		c.Graph = s.Graph.Clone()
	}
	c.Faults = copyFaults(s.Faults)
	return c
}

func copyFaults(f netsim.Faults) netsim.Faults {
	if len(f.DropEdge) > 0 {
		m := make(map[netsim.Edge]float64, len(f.DropEdge))
		for k, v := range f.DropEdge {
			m[k] = v
		}
		f.DropEdge = m
	}
	if len(f.DelayEdge) > 0 {
		m := make(map[netsim.Edge]int, len(f.DelayEdge))
		for k, v := range f.DelayEdge {
			m[k] = v
		}
		f.DelayEdge = m
	}
	if len(f.Partitions) > 0 {
		blocks := make([][]int, len(f.Partitions))
		for i, b := range f.Partitions {
			blocks[i] = append([]int(nil), b...)
		}
		f.Partitions = blocks
	}
	return f
}
