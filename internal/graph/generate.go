package graph

import (
	"fmt"
	"math/rand"
	"strings"
)

// Topology names a canned agent-network shape used by the benchmark
// harness and the policy-sweep experiments.
type Topology int

// Canned topologies.
const (
	TopologyLine Topology = iota + 1
	TopologyRing
	TopologyStar
	TopologyComplete
	TopologyRandomConnected
)

// topologyTokens is the vocabulary of Topology in generator profiles
// and on mcacheck's command line, indexed by topology. The zero value
// is not a topology and has no token.
var topologyTokens = [...]string{
	TopologyLine:            "line",
	TopologyRing:            "ring",
	TopologyStar:            "star",
	TopologyComplete:        "complete",
	TopologyRandomConnected: "random",
}

// String returns the topology's display name: its token, except that
// the random topology prints as "random-connected".
func (t Topology) String() string {
	switch {
	case t == TopologyRandomConnected:
		return "random-connected"
	case t > 0 && int(t) < len(topologyTokens):
		return topologyTokens[t]
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// UnmarshalText parses a topology token.
func (t *Topology) UnmarshalText(text []byte) error {
	for v := TopologyLine; int(v) < len(topologyTokens); v++ {
		if topologyTokens[v] == string(text) {
			*t = v
			return nil
		}
	}
	return fmt.Errorf("graph: unknown topology %q (want %s)", text, strings.Join(topologyTokens[TopologyLine:], "|"))
}

// Line returns the n-node path graph 0-1-...-(n-1).
func Line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Ring returns the n-node cycle; for n < 3 it degenerates to a line.
func Ring(n int) *Graph {
	g := Line(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Star returns the n-node star with node 0 as hub.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Complete returns the n-node complete graph.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Build constructs the named topology. For TopologyRandomConnected the
// seed selects the instance; other shapes ignore it.
func Build(t Topology, n int, seed int64) *Graph {
	switch t {
	case TopologyLine:
		return Line(n)
	case TopologyRing:
		return Ring(n)
	case TopologyStar:
		return Star(n)
	case TopologyComplete:
		return Complete(n)
	case TopologyRandomConnected:
		return RandomConnected(n, 0.3, seed)
	default:
		panic(fmt.Sprintf("graph: unknown topology %v", t))
	}
}

// RandomConnected returns a random connected graph on n nodes: a random
// spanning tree plus each remaining pair independently with probability p.
// The generator is deterministic in seed.
func RandomConnected(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		// Attach each node to a random earlier node: a uniform random
		// attachment tree keeps diameters varied across seeds.
		u := perm[i]
		v := perm[rng.Intn(i)]
		g.AddEdge(u, v)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}
