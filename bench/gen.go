package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// The benchmark carries its own request generator and deliberately does
// not import internal/gen or internal/engine's encoder: the server sees
// only the JSON produced here, so a change to either package cannot
// silently change the load.
//
// Every request body is one of four scenario families. Copies within a
// family differ only in a scale factor applied to every base valuation
// (or, for the SAT family, in solver.rand_seed): the protocol only
// compares bids, so a scaled copy has the same state space and verdict
// but a different content address, and therefore misses the cache.
// Scale factors are multiples of 4 so that submodular-residual's
// base*rem/4 stays exact at every scale.

type utilityDoc struct {
	Kind string `json:"kind"`
}

type policyDoc struct {
	Target        int        `json:"target"`
	Utility       utilityDoc `json:"utility"`
	ReleaseOutbid bool       `json:"release_outbid,omitempty"`
	Rebid         string     `json:"rebid"`
}

type agentDoc struct {
	ID     int       `json:"id"`
	Items  int       `json:"items"`
	Base   []int64   `json:"base"`
	Policy policyDoc `json:"policy"`
}

type edgeDoc struct {
	U int `json:"u"`
	V int `json:"v"`
}

type graphDoc struct {
	Nodes int       `json:"nodes"`
	Edges []edgeDoc `json:"edges"`
}

type exploreDoc struct {
	MaxStates int `json:"max_states"`
}

type scopeDoc struct {
	PNodes   int `json:"pnodes"`
	VNodes   int `json:"vnodes"`
	Values   int `json:"values"`
	States   int `json:"states"`
	Msgs     int `json:"msgs"`
	Bitwidth int `json:"int_bitwidth"`
}

type modelSpecDoc struct {
	Encoding string   `json:"encoding"`
	Scope    scopeDoc `json:"scope"`
}

type modelDoc struct {
	Kind string       `json:"kind"`
	Spec modelSpecDoc `json:"spec"`
}

type solverDoc struct {
	RandSeed int64 `json:"rand_seed"`
}

type faultsDoc struct {
	Drop  float64 `json:"drop,omitempty"`
	Delay int     `json:"delay,omitempty"`
}

// scenarioDoc is a scenario document (docs/SCENARIO_FORMAT.md). Version
// is omitted inside a sweep's base, which may not carry one.
type scenarioDoc struct {
	Version int         `json:"version,omitempty"`
	Name    string      `json:"name,omitempty"`
	Agents  []agentDoc  `json:"agents,omitempty"`
	Graph   *graphDoc   `json:"graph,omitempty"`
	Explore *exploreDoc `json:"explore,omitempty"`
	Faults  *faultsDoc  `json:"faults,omitempty"`
	Model   *modelDoc   `json:"model,omitempty"`
	Solver  *solverDoc  `json:"solver,omitempty"`
}

type variantDoc struct {
	Name     string      `json:"name"`
	Scenario scenarioDoc `json:"scenario"`
}

type axisDoc struct {
	Axis     string       `json:"axis"`
	Variants []variantDoc `json:"variants"`
}

type sweepDoc struct {
	Version int         `json:"version"`
	Name    string      `json:"name"`
	Base    scenarioDoc `json:"base"`
	Axes    []axisDoc   `json:"axes"`
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the documents above are plain data; only a bug gets here
	}
	return data
}

func agents(bases [][]int64, scale int64, pol policyDoc) []agentDoc {
	out := make([]agentDoc, len(bases))
	for i, b := range bases {
		scaled := make([]int64, len(b))
		for j, v := range b {
			scaled[j] = v * scale
		}
		out[i] = agentDoc{ID: i, Items: len(b), Base: scaled, Policy: pol}
	}
	return out
}

var flatPolicy = policyDoc{Target: 2, Utility: utilityDoc{Kind: "flat"}, Rebid: "on-change"}

// ring3 is the tracked deep instance (bench_test.go's
// exploreBenchAgents on a 3-ring): 100,110 states at every scale.
func ring3(scale int64) []byte {
	return mustJSON(scenarioDoc{
		Version: 1,
		Name:    fmt.Sprintf("ring3-flat/x%d", scale),
		Agents:  agents([][]int64{{12, 8}, {8, 12}, {4, 8}}, scale, flatPolicy),
		Graph:   &graphDoc{Nodes: 3, Edges: []edgeDoc{{0, 1}, {1, 2}, {0, 2}}},
		Explore: &exploreDoc{MaxStates: 2000000},
	})
}

// star4 is the small deep instance the tests and the out-of-core layer
// probes use: 35,899 states at every scale.
func star4(scale int64) []byte {
	return mustJSON(scenarioDoc{
		Version: 1,
		Name:    fmt.Sprintf("star4-flat/x%d", scale),
		Agents:  agents(star4Bases, scale, flatPolicy),
		Graph:   &graphDoc{Nodes: 4, Edges: []edgeDoc{{0, 1}, {0, 2}, {0, 3}}},
		Explore: &exploreDoc{MaxStates: 2000000},
	})
}

var star4Bases = [][]int64{{12, 8}, {8, 12}, {4, 8}, {6, 6}}

// satScope is the sat-check scope: the paper's model one state deeper
// than PaperScope, so translation dominates and the solver still has
// real work.
var satScope = scopeDoc{PNodes: 3, VNodes: 2, Values: 4, States: 4, Msgs: 2, Bitwidth: 3}

// satCheck is the paper's own method on the optimized encoding; copies
// are made distinct by solver.rand_seed.
func satCheck(randSeed int64) []byte {
	return mustJSON(scenarioDoc{
		Version: 1,
		Name:    fmt.Sprintf("sat-consensus/r%d", randSeed),
		Model:   &modelDoc{Kind: "mca-model", Spec: modelSpecDoc{Encoding: "optimized", Scope: satScope}},
		Solver:  &solverDoc{RandSeed: randSeed},
	})
}

// The grid's axes. Cell names are "mca/<utility>-x<scale>/<network>";
// the checker keys its known answers on the two named parts.
var (
	gridUtilities = []string{"submodular-residual", "non-submodular-synergy"}
	gridNetworks  = []variantDoc{
		{Name: "reliable"},
		{Name: "drop25", Scenario: scenarioDoc{Faults: &faultsDoc{Drop: 0.25}}},
		{Name: "delay3", Scenario: scenarioDoc{Faults: &faultsDoc{Delay: 3}}},
	}
	gridBases = [][]int64{{10, 15}, {15, 10}}
)

// grid is one sweep document of len(scales)*2*3 small cells: two
// agents on a complete graph, every scale under both utilities, every
// such pair on a reliable, a lossy and a delaying network.
func grid(scales []int64) []byte {
	var cells []variantDoc
	for _, s := range scales {
		for _, u := range gridUtilities {
			pol := policyDoc{Target: 2, Utility: utilityDoc{Kind: u}, ReleaseOutbid: true, Rebid: "on-change"}
			cells = append(cells, variantDoc{
				Name:     fmt.Sprintf("%s-x%d", u, s),
				Scenario: scenarioDoc{Agents: agents(gridBases, s, pol)},
			})
		}
	}
	return mustJSON(sweepDoc{
		Version: 1,
		Name:    "grid",
		Base: scenarioDoc{
			Name:    "mca",
			Graph:   &graphDoc{Nodes: 2, Edges: []edgeDoc{{0, 1}}},
			Explore: &exploreDoc{MaxStates: 100000},
		},
		Axes: []axisDoc{{Axis: "agents", Variants: cells}, {Axis: "network", Variants: gridNetworks}},
	})
}

// gridScales is how many scale factors one grid carries: 100 scales x
// 2 utilities x 3 networks = 600 cells.
const gridScales = 100

// source draws everything the seed decides: scale factors and solver
// seeds, never repeating a value within one run so that no request
// meets a cache entry an earlier one left behind.
type source struct {
	rng  *rand.Rand
	used map[int64]bool
}

func newSource(seed int64) *source {
	return &source{rng: rand.New(rand.NewSource(seed)), used: map[int64]bool{}}
}

func (s *source) fresh() int64 {
	for {
		v := 1 + s.rng.Int63n(1<<30)
		if !s.used[v] {
			s.used[v] = true
			return v
		}
	}
}

func (s *source) scale() int64 { return 4 * s.fresh() }

func (s *source) scales(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = s.scale()
	}
	return out
}
