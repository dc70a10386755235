package ssr

import (
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
	"repro/internal/vring"
)

// Cluster runs SSR over an entire network — the shared driver of
// package node — and provides the convergence oracle and
// routing-experiment helpers.
type Cluster struct {
	node.Cluster[*Node]
	cfg Config
}

// NewCluster creates one SSR node per topology node and starts them with
// per-node jitter drawn from the engine's seeded source.
func NewCluster(net phys.Transport, cfg Config) *Cluster {
	c := &Cluster{cfg: cfg.withDefaults()}
	c.Cluster = node.NewCluster(net, c.Consistent,
		func(v ids.ID) *Node { return NewNode(net, v, c.cfg) },
		func(_ ids.ID, n *Node) { n.Start(startJitter(net, c.cfg)) })
	return c
}

// startJitter draws one node's start offset within the first tick interval
// from the engine's seeded source.
func startJitter(net phys.Transport, cfg Config) sim.Time {
	return sim.Time(net.Engine().Rand().Int63n(int64(cfg.TickInterval)))
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
	nodes := c.IDs()
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
	return node.AtExtremes(&c.Nodes[nodes[0]].wrap, &c.Nodes[nodes[len(nodes)-1]].wrap)
}

// PendingOps returns the total number of in-flight introduction operations
// across the cluster — the chaos harness's pending-state-leak probe. An op
// stops pending within pendingFor ticks of its creation, so the total is
// bounded by the introduction rate; unbounded growth is a leak.
func (c *Cluster) PendingOps() int {
	total := 0
	for _, n := range c.Nodes {
		for _, op := range n.intros {
			if n.pending(op) {
				total++
			}
		}
	}
	return total
}

// AuditRoutes scans every cached route in the cluster and counts those
// containing a repeated node — the source-route loop-freedom probe of the
// chaos harness. The sroute constructors reject cycles, so looped must
// always be zero; a nonzero count means corrupted cache state.
func (c *Cluster) AuditRoutes() (total, looped int) {
	for _, n := range c.Nodes {
		n.Cache().Each(func(_ ids.ID, r sroute.Route) {
			total++
			if !r.Simple() {
				looped++
			}
		})
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
