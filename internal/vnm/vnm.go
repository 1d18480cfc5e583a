package vnm

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/mca"
)

// PhysicalNode is an agent-capable substrate node.
type PhysicalNode struct {
	CPU int64 // hosting capacity (the pcp field)
}

// VirtualNode is an item on auction.
type VirtualNode struct {
	CPU int64 // demanded capacity
}

// VirtualLink connects two virtual nodes with a bandwidth demand.
type VirtualLink struct {
	A, B      int
	Bandwidth float64
}

// PhysicalNetwork is the substrate: topology plus node capacities. Edge
// weights on the graph are link bandwidth capacities.
type PhysicalNetwork struct {
	Graph *graph.Graph
	Nodes []PhysicalNode
}

// VirtualNetwork is the request: virtual nodes and links.
type VirtualNetwork struct {
	Nodes []VirtualNode
	Links []VirtualLink
}

// Validate checks structural consistency.
func (p *PhysicalNetwork) Validate() error {
	if p.Graph == nil || p.Graph.N() != len(p.Nodes) {
		return fmt.Errorf("vnm: physical graph/node mismatch")
	}
	return nil
}

// Validate checks structural consistency.
func (v *VirtualNetwork) Validate() error {
	for _, l := range v.Links {
		if l.A < 0 || l.A >= len(v.Nodes) || l.B < 0 || l.B >= len(v.Nodes) || l.A == l.B {
			return fmt.Errorf("vnm: bad virtual link %d-%d", l.A, l.B)
		}
	}
	return nil
}

// Mapping is a complete embedding: virtual node → physical node, and
// virtual link → loop-free physical path.
type Mapping struct {
	NodeMap []int // virtual node index → physical node index (-1 unmapped)
	// LinkPaths[i] is the physical path carrying VirtualNetwork.Links[i].
	LinkPaths []graph.Path
}

// ErrNoMapping is returned when the MCA auction or the path mapping
// fails to embed the request.
var ErrNoMapping = errors.New("vnm: no valid mapping found")

// Options tunes the embedding.
type Options struct {
	// KPaths is the number of candidate paths per virtual link (default 3).
	KPaths int
	// Policy overrides the default agent policy (sub-modular residual
	// capacity utility, release-outbid, honest rebidding).
	Policy *mca.Policy
}

// Embedder runs MCA-based virtual network embedding.
type Embedder struct {
	phys *PhysicalNetwork
	opts Options
}

// NewEmbedder validates and prepares an embedder.
func NewEmbedder(phys *PhysicalNetwork, opts Options) (*Embedder, error) {
	if err := phys.Validate(); err != nil {
		return nil, err
	}
	if opts.KPaths <= 0 {
		opts.KPaths = 3
	}
	return &Embedder{phys: phys, opts: opts}, nil
}

// Embed maps the virtual network: first a distributed MCA auction
// assigns virtual nodes to physical hosts, then each virtual link is
// routed on the first k-shortest loop-free path with enough bandwidth.
func (e *Embedder) Embed(vnet *VirtualNetwork) (*Mapping, mca.Outcome, error) {
	var out mca.Outcome
	if err := vnet.Validate(); err != nil {
		return nil, out, err
	}
	items := len(vnet.Nodes)
	if items == 0 {
		return &Mapping{}, out, nil
	}

	agents := make([]*mca.Agent, e.phys.Graph.N())
	demands := make([]int64, items)
	for j, vn := range vnet.Nodes {
		demands[j] = vn.CPU
	}
	for i := range agents {
		pol := mca.Policy{
			Target:        items,
			Utility:       mca.SubmodularResidual{},
			ReleaseOutbid: true,
			Rebid:         mca.RebidOnChange,
		}
		if e.opts.Policy != nil {
			pol = *e.opts.Policy
		}
		// Private valuation: the node's CPU headroom over the demand —
		// higher residual capacity bids more (the paper's sub-modular
		// residual-capacity example).
		base := make([]int64, items)
		for j := range base {
			headroom := e.phys.Nodes[i].CPU - demands[j]
			if headroom > 0 {
				base[j] = headroom
			}
		}
		a, err := mca.NewAgent(mca.Config{
			ID:       mca.AgentID(i),
			Items:    items,
			Base:     base,
			Policy:   pol,
			Demands:  demands,
			Capacity: e.phys.Nodes[i].CPU,
		})
		if err != nil {
			return nil, out, err
		}
		agents[i] = a
	}

	runner, err := mca.NewSyncRunner(agents, e.phys.Graph)
	if err != nil {
		return nil, out, err
	}
	maxRounds := 4*mca.MessageBound(e.phys.Graph, items) + 8
	out = runner.Run(maxRounds)
	if !out.Converged {
		return nil, out, fmt.Errorf("%w: auction did not converge in %d rounds", ErrNoMapping, maxRounds)
	}

	m := &Mapping{NodeMap: make([]int, items)}
	for j, w := range out.Allocation {
		if w == mca.NoAgent {
			return nil, out, fmt.Errorf("%w: virtual node %d unassigned", ErrNoMapping, j)
		}
		m.NodeMap[j] = int(w)
	}

	// Link mapping: k-shortest loop-free paths with bandwidth check.
	for _, l := range vnet.Links {
		src := m.NodeMap[l.A]
		dst := m.NodeMap[l.B]
		if src == dst {
			// Co-located endpoints: the virtual link maps to the single
			// node path.
			m.LinkPaths = append(m.LinkPaths, graph.Path{Nodes: []int{src}})
			continue
		}
		paths, err := e.phys.Graph.KShortestPaths(src, dst, e.opts.KPaths)
		if err != nil {
			return nil, out, fmt.Errorf("%w: no physical path for virtual link %d-%d", ErrNoMapping, l.A, l.B)
		}
		chosen := -1
		for pi, p := range paths {
			if pathSupportsBandwidth(e.phys.Graph, p, l.Bandwidth) {
				chosen = pi
				break
			}
		}
		if chosen == -1 {
			return nil, out, fmt.Errorf("%w: no path with bandwidth %.1f for link %d-%d", ErrNoMapping, l.Bandwidth, l.A, l.B)
		}
		m.LinkPaths = append(m.LinkPaths, paths[chosen])
	}
	return m, out, nil
}

func pathSupportsBandwidth(g *graph.Graph, p graph.Path, bw float64) bool {
	for i := 0; i+1 < len(p.Nodes); i++ {
		w, ok := g.Weight(p.Nodes[i], p.Nodes[i+1])
		if !ok || w < bw {
			return false
		}
	}
	return true
}

// ValidateMapping checks that a mapping is a valid embedding of vnet on
// phys: every virtual node on exactly one physical node with the CPU
// fact satisfied in aggregate, every link on a loop-free path whose
// endpoints match the node map and whose links carry the bandwidth.
func ValidateMapping(phys *PhysicalNetwork, vnet *VirtualNetwork, m *Mapping) error {
	if len(m.NodeMap) != len(vnet.Nodes) {
		return fmt.Errorf("vnm: node map length %d != %d", len(m.NodeMap), len(vnet.Nodes))
	}
	used := make([]int64, phys.Graph.N())
	for j, pi := range m.NodeMap {
		if pi < 0 || pi >= phys.Graph.N() {
			return fmt.Errorf("vnm: virtual node %d mapped out of range (%d)", j, pi)
		}
		used[pi] += vnet.Nodes[j].CPU
	}
	for i, u := range used {
		if u > phys.Nodes[i].CPU {
			return fmt.Errorf("vnm: physical node %d over capacity: %d > %d (the pcapacity fact)", i, u, phys.Nodes[i].CPU)
		}
	}
	if len(m.LinkPaths) != len(vnet.Links) {
		return fmt.Errorf("vnm: %d link paths for %d links", len(m.LinkPaths), len(vnet.Links))
	}
	for li, l := range vnet.Links {
		p := m.LinkPaths[li]
		if !p.Simple() {
			return fmt.Errorf("vnm: link %d path has a loop: %v", li, p.Nodes)
		}
		if len(p.Nodes) == 0 {
			return fmt.Errorf("vnm: link %d path empty", li)
		}
		if p.Nodes[0] != m.NodeMap[l.A] || p.Nodes[len(p.Nodes)-1] != m.NodeMap[l.B] {
			return fmt.Errorf("vnm: link %d path endpoints %v do not match node map", li, p.Nodes)
		}
		if !pathSupportsBandwidth(phys.Graph, p, l.Bandwidth) && len(p.Nodes) > 1 {
			return fmt.Errorf("vnm: link %d path lacks bandwidth %.1f", li, l.Bandwidth)
		}
	}
	return nil
}

// NetworkUtility sums the residual capacity across physical nodes after
// the mapping — the Pareto-style objective the cooperating providers
// maximize.
func NetworkUtility(phys *PhysicalNetwork, vnet *VirtualNetwork, m *Mapping) int64 {
	used := make([]int64, phys.Graph.N())
	for j, pi := range m.NodeMap {
		if pi >= 0 {
			used[pi] += vnet.Nodes[j].CPU
		}
	}
	var total int64
	for i, n := range phys.Nodes {
		total += n.CPU - used[i]
	}
	return total
}
