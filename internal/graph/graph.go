package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected weighted graph over nodes 0..N-1.
// The zero value is an empty graph with no nodes; use New to size it.
type Graph struct {
	n   int
	adj []map[int]float64 // adj[u][v] = weight of edge {u,v}
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	g := &Graph{n: n, adj: make([]map[int]float64, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]float64)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int {
	m := 0
	for _, a := range g.adj {
		m += len(a)
	}
	return m / 2
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// AddEdge inserts the undirected edge {u,v} with weight 1.
func (g *Graph) AddEdge(u, v int) { g.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge inserts the undirected edge {u,v} with the given weight.
// Re-adding an existing edge overwrites its weight. Self loops are rejected.
func (g *Graph) AddWeightedEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self loop on node %d", u))
	}
	g.adj[u][v] = w
	g.adj[v][u] = w
}

// RemoveEdge deletes the undirected edge {u,v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.check(u)
	g.check(v)
	delete(g.adj[u], v)
	delete(g.adj[v], u)
}

// HasEdge reports whether the edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := g.adj[u][v]
	return ok
}

// Weight returns the weight of edge {u,v} and whether it exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	g.check(u)
	g.check(v)
	w, ok := g.adj[u][v]
	return w, ok
}

// Neighbors returns the sorted neighbor set of u.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u, a := range g.adj {
		for v, w := range a {
			c.adj[u][v] = w
		}
	}
	return c
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V   int
	Weight float64
}

// Edges returns all edges sorted by (U, V), with U < V.
func (g *Graph) Edges() []Edge {
	var es []Edge
	for u, a := range g.adj {
		for v, w := range a {
			if u < v {
				es = append(es, Edge{U: u, V: v, Weight: w})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// BFSDist returns the hop distance from src to every node; unreachable
// nodes get -1.
func (g *Graph) BFSDist(src int) []int {
	g.check(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected. The empty graph and
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFSDist(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Diameter returns the longest shortest-path hop count between any pair of
// nodes, or -1 if the graph is disconnected or empty.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	diam := 0
	for u := 0; u < g.n; u++ {
		dist := g.BFSDist(u)
		for _, d := range dist {
			if d == -1 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// String renders the graph as "n=<N> edges=[(u-v) ...]".
func (g *Graph) String() string {
	s := fmt.Sprintf("n=%d edges=[", g.n)
	for i, e := range g.Edges() {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d-%d", e.U, e.V)
	}
	return s + "]"
}
