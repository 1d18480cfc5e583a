package engine

import (
	"fmt"
	"math"

	"repro/internal/explore"
	"repro/internal/mcamodel"
)

// Ceilings on what the engines multiply: a derived message budget is
// diameter × items × bound_slack, the hard delivery limit that ×
// hard_limit_factor, a simulation's delivery budget diameter × items ×
// BudgetFactor. With at most MaxGraphNodes nodes, MaxItems items and
// explore's MaxBound and MaxBoundFactor, none of them leaves 2^53.
const (
	// MaxAgents bounds the agent list: the network simulator indexes
	// channels by a dense agents × agents table.
	MaxAgents = 1 << 10
	// MaxItems bounds an agent's item count.
	MaxItems = 1 << 16
	// MaxBudgetFactor bounds Simulation.BudgetFactor.
	MaxBudgetFactor = 1 << 20
	// MaxWorkers bounds SAT.Workers, whose portfolio's memory grows with
	// its size, and Explicit.Workers, which selects nothing but keeps
	// the bound it had when it sized the sharded frontier.
	MaxWorkers = 64
	// MaxFaultTicks bounds the fault fields counted in delivery ticks —
	// delay, delay_edge, reorder and heal_after. The simulator adds a
	// delay to its clock and widens the reorder window by one; near
	// MaxInt either would wrap and leave the fault silently inert.
	MaxFaultTicks = 1 << 30
)

// Validate reports the first well-formedness rule the scenario breaks,
// or nil. Every rule on a scenario value is here — the decoders only
// convert — and DecodeScenario, every cell of DecodeSweep and Applicable
// (so every engine's Verify) end in it, whether the value came from a
// document or was built in Go. What it accepts is data: it encodes, and
// so has a content address. A graph without agents, agents without a
// graph and neither (SAT-only) are all well formed.
// docs/SCENARIO_FORMAT.md §Well-formedness is this list.
func (s *Scenario) Validate() error {
	if err := s.validateSections(s.Name); err != nil {
		return err
	}
	return s.validateCross()
}

// illFormed builds a Validate error; every one names the scenario.
func illFormed(name, format string, args ...any) error {
	return fmt.Errorf("engine: scenario %q"+format, append([]any{name}, args...)...)
}

// IsProbability reports whether p lies in [0,1]; NaN does not. It is the
// one range test of every probability a scenario or a generator profile
// carries: a NaN passes a test written as p < 0 || p > 1, and then
// silently never fires.
func IsProbability(p float64) bool { return p >= 0 && p <= 1 }

// validateSections checks the rules that read one section each. A sweep
// expansion runs it once per distinct section value — on a scenario
// holding that section only, under the name of the first cell using it.
func (s *Scenario) validateSections(name string) error {
	// Agents: each constructs from data alone, sits at the position its
	// id names — the engines index agents, graph nodes and fault
	// references by it — and bids on the same item set as the others.
	if len(s.AgentSpecs) > MaxAgents {
		return illFormed(name, ": %d agents (at most %d)", len(s.AgentSpecs), MaxAgents)
	}
	for i, cfg := range s.AgentSpecs {
		switch err := cfg.Validate(); {
		case err != nil:
			return illFormed(name, " agent %d: %w", i, err)
		case int(cfg.ID) != i:
			return illFormed(name, ": agent at position %d has id %d (ids must run 0..n-1 in order)", i, cfg.ID)
		case cfg.Items != s.AgentSpecs[0].Items:
			return illFormed(name, ": agent %d has %d items, agent 0 has %d (all agents bid on one item set)", i, cfg.Items, s.AgentSpecs[0].Items)
		case cfg.Items > MaxItems:
			return illFormed(name, ": agent %d has %d items (at most %d)", i, cfg.Items, MaxItems)
		case cfg.Resolver != nil:
			return illFormed(name, " agent %d: custom resolver (a scenario uses the default conflict table)", i)
		}
		if _, err := encodeUtility(cfg.Policy.Utility); err != nil {
			return illFormed(name, " agent %d: %w", i, err)
		}
	}

	// Graph: edge weights are finite, as a document's numbers are.
	if s.Graph != nil {
		for _, e := range s.Graph.Edges() {
			if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
				return illFormed(name, ": graph edge {%d,%d} weight %v is not finite", e.U, e.V, e.Weight)
			}
		}
	}

	// Explore: a lossy store is one make() of 2^store_bits slots, and
	// the message budgets are products (see the ceilings above).
	ex := &s.Explore
	if limit := explore.MaxStoreBits(ex.Store); ex.StoreBits < 0 || ex.StoreBits > limit {
		return illFormed(name, ": store_bits %d outside [0,%d] for the %s store", ex.StoreBits, limit, ex.Store)
	}
	for _, c := range []struct {
		field      string
		value, max int
	}{
		{"bound", ex.Bound, explore.MaxBound},
		{"bound_slack", ex.BoundSlack, explore.MaxBoundFactor},
		{"hard_limit_factor", ex.HardLimitFactor, explore.MaxBoundFactor},
	} {
		if c.value > c.max {
			return illFormed(name, ": explore %s %d above %d", c.field, c.value, c.max)
		}
	}

	// Faults: an out-of-range probability or tick count would be
	// silently inert at run time, letting a typo turn a lossy scenario
	// into a reliable one.
	f := &s.Faults
	switch {
	case !IsProbability(f.Drop):
		return illFormed(name, " faults: drop probability %v outside [0,1]", f.Drop)
	case !IsProbability(f.Duplicate):
		return illFormed(name, " faults: duplicate probability %v outside [0,1]", f.Duplicate)
	}
	for _, c := range []struct {
		field string
		value int
	}{{"delay", f.Delay}, {"reorder", f.Reorder}, {"heal_after", f.HealAfter}} {
		if c.value < 0 || c.value > MaxFaultTicks {
			return illFormed(name, " faults: %s %d outside [0,%d]", c.field, c.value, MaxFaultTicks)
		}
	}
	for e, p := range f.DropEdge {
		if !IsProbability(p) {
			return illFormed(name, " faults: drop_edge {%d,%d} probability %v outside [0,1]", e.From, e.To, p)
		}
	}
	for e, d := range f.DelayEdge {
		if d < 0 || d > MaxFaultTicks {
			return illFormed(name, " faults: delay_edge {%d,%d} delay %d outside [0,%d]", e.From, e.To, d, MaxFaultTicks)
		}
	}

	// Model: one the codec can name, so one a document can rebuild.
	if m := s.Model; m != nil && mcamodel.Encodings[m.Name] == nil {
		return illFormed(name, " model: encoding %q is not buildable (want naive|optimized)", m.Name)
	}

	if p := s.Solver.RandomPolarityFreq; !IsProbability(p) {
		return illFormed(name, " solver: random_polarity_freq %v outside [0,1]", p)
	}
	return nil
}

// validateCross checks the rules that read two sections; a sweep
// expansion runs it once per cell. Node i of the graph hosts agent i,
// and a fault that names a node names one of the graph's — any
// non-negative one when there is no graph: SAT-only scenarios carry no
// node range to check.
func (s *Scenario) validateCross() error {
	nodes := -1
	if s.Graph != nil {
		nodes = s.Graph.N()
		if len(s.AgentSpecs) > 0 && nodes != len(s.AgentSpecs) {
			return illFormed(s.Name, ": %d agents on a %d-node graph (node i hosts agent i)", len(s.AgentSpecs), nodes)
		}
	}
	bad := func(n int) bool { return n < 0 || (nodes >= 0 && n >= nodes) }
	for e := range s.Faults.DropEdge {
		if bad(int(e.From)) || bad(int(e.To)) {
			return illFormed(s.Name, " faults: drop_edge {%d,%d} outside the %d-node graph", e.From, e.To, nodes)
		}
	}
	for e := range s.Faults.DelayEdge {
		if bad(int(e.From)) || bad(int(e.To)) {
			return illFormed(s.Name, " faults: delay_edge {%d,%d} outside the %d-node graph", e.From, e.To, nodes)
		}
	}
	for bi, block := range s.Faults.Partitions {
		for _, n := range block {
			if bad(n) {
				return illFormed(s.Name, " faults: partition block %d names node %d outside the %d-node graph", bi, n, nodes)
			}
		}
	}
	return nil
}
