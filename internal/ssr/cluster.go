package ssr

import (
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vring"
)

// Cluster runs SSR over an entire network and provides the convergence
// oracle and routing-experiment helpers.
type Cluster struct {
	Net   phys.Transport
	Nodes map[ids.ID]*Node
	cfg   Config

	minID, maxID ids.ID
	probeStopped bool
}

// NewCluster creates one SSR node per topology node and starts them with
// per-node jitter drawn from the engine's seeded source.
func NewCluster(net phys.Transport, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{Net: net, Nodes: make(map[ids.ID]*Node), cfg: cfg}
	nodes := net.Topology().Nodes()
	for _, v := range nodes {
		c.Nodes[v] = NewNode(net, v, cfg)
	}
	if len(nodes) > 0 {
		c.minID = nodes[0]
		c.maxID = nodes[len(nodes)-1]
	}
	for _, v := range nodes {
		c.Nodes[v].Start(sim.Time(net.Engine().Rand().Int63n(int64(cfg.TickInterval))))
	}
	return c
}

// VirtualGraph returns the current virtual edge set E_v: an undirected edge
// {v,u} for every cached route destination u of every node v.
func (c *Cluster) VirtualGraph() *graph.Graph {
	g := graph.New()
	for v, n := range c.Nodes {
		g.AddNode(v)
		for _, dst := range n.Cache().Destinations() {
			g.AddEdge(v, dst)
		}
	}
	return g
}

// LineReport diagnoses the line view of the current virtual graph.
func (c *Cluster) LineReport() vring.LineReport {
	return vring.AnalyzeLine(c.VirtualGraph())
}

// Consistent reports global consistency: every node caches a route to its
// own line predecessor and successor (two-sided line edges — the property
// greedy routing relies on, which the keepalives establish within one
// period once either side holds the edge), and — when ring closure is
// enabled — the true extremal nodes have acknowledged each other as wrap
// partners.
func (c *Cluster) Consistent() bool {
	if len(c.Nodes) < 2 {
		return true
	}
	nodes := make([]ids.ID, 0, len(c.Nodes))
	for v := range c.Nodes {
		nodes = append(nodes, v)
	}
	ids.SortAsc(nodes)
	for i, v := range nodes {
		n := c.Nodes[v]
		if i > 0 && n.Cache().Route(nodes[i-1]) == nil {
			return false
		}
		if i < len(nodes)-1 && n.Cache().Route(nodes[i+1]) == nil {
			return false
		}
	}
	if !c.cfg.CloseRing || len(c.Nodes) < 3 {
		return true
	}
	min, max := c.Nodes[c.minID], c.Nodes[c.maxID]
	return min.hasWrapLeft && min.wrapLeft == c.maxID &&
		max.hasWrapRight && max.wrapRight == c.minID
}

// RunUntilConsistent drives the simulation until global consistency or the
// deadline, returning the convergence time and whether it converged.
func (c *Cluster) RunUntilConsistent(deadline sim.Time) (sim.Time, bool) {
	return c.Net.Engine().RunUntilHolds(deadline, 8, c.Consistent)
}

// Stop halts all nodes' periodic activity and any attached probes.
func (c *Cluster) Stop() {
	c.probeStopped = true
	for _, n := range c.Nodes {
		n.Stop()
	}
}

// AttachProbe samples the cluster's virtual graph into the convergence
// probe every `every` ticks, starting one interval from now, until Stop.
// Each sample is one "round" of the message-level convergence series —
// the hook that lets the round-by-round probes of the abstract model watch
// the asynchronous protocol too.
func (c *Cluster) AttachProbe(p *trace.Probe, every sim.Time) {
	if p == nil {
		return
	}
	round := 0
	c.Net.Engine().Every(every, func() bool {
		if c.probeStopped {
			return false
		}
		p.Observe(round, c.VirtualGraph())
		round++
		return true
	})
}

// PendingOps returns the total number of in-flight introduction operations
// across the cluster — the chaos harness's pending-state-leak probe. Each
// entry self-expires within 8 ticks of its creation, so the total is
// bounded by the introduction rate; unbounded growth is a leak.
func (c *Cluster) PendingOps() int {
	total := 0
	for _, n := range c.Nodes {
		total += len(n.pending)
	}
	return total
}

// AuditRoutes scans every cached route in the cluster and counts those
// containing a repeated node — the source-route loop-freedom probe of the
// chaos harness. The sroute constructors reject cycles, so looped must
// always be zero; a nonzero count means corrupted cache state.
func (c *Cluster) AuditRoutes() (total, looped int) {
	for _, n := range c.Nodes {
		for _, dst := range n.Cache().Destinations() {
			r := n.Cache().Route(dst)
			if r == nil {
				continue
			}
			total++
			seen := ids.NewSet()
			for _, hop := range r {
				if seen.Has(hop) {
					looped++
					break
				}
				seen.Add(hop)
			}
		}
	}
	return total, looped
}

// RouteResult describes one data-routing attempt (experiment E7).
type RouteResult struct {
	Src, Dst  ids.ID
	Delivered bool
	Hops      int // physical transmissions used
	Segments  int // greedy segments
	Shortest  int // physical shortest-path hops (stretch denominator)
}

// Stretch returns Hops/Shortest, or 0 when undefined.
func (r RouteResult) Stretch() float64 {
	if !r.Delivered || r.Shortest == 0 {
		return 0
	}
	return float64(r.Hops) / float64(r.Shortest)
}

// RouteData sends a packet from src to dst and runs the engine until it is
// delivered or the per-packet deadline elapses.
func (c *Cluster) RouteData(src, dst ids.ID, deadline sim.Time) RouteResult {
	res := RouteResult{Src: src, Dst: dst}
	if sp := c.Net.Topology().ShortestPath(src, dst); sp != nil {
		res.Shortest = len(sp) - 1
	}
	node, ok := c.Nodes[src]
	if !ok {
		return res
	}
	dstNode, ok := c.Nodes[dst]
	if !ok {
		return res
	}
	done := false
	prev := dstNode.OnDeliver
	dstNode.OnDeliver = func(d Delivery) {
		if d.Origin == src && !done {
			done = true
			res.Delivered = true
			res.Hops = d.Hops
			res.Segments = d.Segments
		}
	}
	defer func() { dstNode.OnDeliver = prev }()
	if !node.SendData(dst, nil) {
		return res
	}
	eng := c.Net.Engine()
	stop := eng.Now() + deadline
	for win := eng.Now() + 16; !done; win += 16 {
		if win > stop {
			win = stop
		}
		eng.RunUntil(win, func() bool { return done })
		if done || win >= stop || eng.Pending() == 0 {
			break
		}
	}
	return res
}

// AllPairsRouting routes between every ordered pair (or a sample capped at
// maxPairs) and aggregates success rate and stretch — experiment E7.
func (c *Cluster) AllPairsRouting(maxPairs int, perPacket sim.Time) []RouteResult {
	nodes := c.Net.Topology().Nodes()
	var out []RouteResult
	count := 0
	for _, s := range nodes {
		for _, d := range nodes {
			if s == d {
				continue
			}
			if maxPairs > 0 && count >= maxPairs {
				return out
			}
			out = append(out, c.RouteData(s, d, perPacket))
			count++
		}
	}
	return out
}
