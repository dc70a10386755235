// Package floodboot is the brute-force bootstrap baseline: every node
// floods its identifier once over the physical network, so eventually every
// node knows every identifier and can compute its ring neighbors locally by
// sorting. It trivially achieves global consistency — at O(n·E) message
// cost and Θ(n) state per node, which is exactly the expense ISPRP's single
// representative flood reduces and linearization eliminates. The E6x
// experiment uses it as the upper anchor of the message-cost comparison.
package floodboot

import (
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
	"repro/internal/trace"
	"repro/internal/vring"
)

// KindAnnounce is the counter kind for flood frames.
const KindAnnounce = "floodboot:announce"

// announce is the flooded payload: the origin and the physical path the
// frame traveled (so receivers also learn a source route back).
type announce struct {
	Origin ids.ID
	Path   []ids.ID
}

// Node is one participant.
type Node struct {
	id    ids.ID
	net   phys.Transport
	known ids.Set
	// routes keeps one source route per learned identifier (shortest seen).
	routes map[ids.ID]sroute.Route
}

// NewNode creates and registers a flood-bootstrap node.
func NewNode(net phys.Transport, id ids.ID) *Node {
	n := &Node{id: id, net: net, known: ids.NewSet(id), routes: make(map[ids.ID]sroute.Route)}
	net.Register(id, phys.HandlerFunc(n.handle))
	if fd, ok := net.(phys.FailureDetector); ok {
		fd.SubscribeLeases(id, n.onLease)
	}
	return n
}

// onLease consumes a failure-detector verdict about physical neighbor peer.
// Down: drop the learned routes crossing the dead link (the identifiers
// stay known — floodboot's consistency is knowledge, not liveness). Up:
// re-announce our identifier so knowledge crosses the healed link; receivers
// that already know us suppress the re-flood, so the cost is one frame per
// link on the healed side.
func (n *Node) onLease(peer ids.ID, up bool) {
	if up {
		n.net.Broadcast(n.id, KindAnnounce, announce{Origin: n.id, Path: []ids.ID{n.id}})
		return
	}
	for v, r := range n.routes {
		if len(r) >= 2 && r[1] == peer {
			delete(n.routes, v)
		}
	}
}

// ID returns the node identifier.
func (n *Node) ID() ids.ID { return n.id }

// Known returns every identifier this node has learned (itself included).
func (n *Node) Known() []ids.ID { return n.known.Sorted() }

// RouteTo returns the learned source route to v, or nil.
func (n *Node) RouteTo(v ids.ID) sroute.Route { return n.routes[v] }

// Successor computes the ring successor from local knowledge.
func (n *Node) Successor() (ids.ID, bool) {
	best := n.id
	found := false
	for v := range n.known {
		if v == n.id {
			continue
		}
		if !found || ids.RingDist(n.id, v) < ids.RingDist(n.id, best) {
			best = v
			found = true
		}
	}
	return best, found
}

// Start floods this node's identifier.
func (n *Node) Start() {
	n.net.Broadcast(n.id, KindAnnounce, announce{Origin: n.id, Path: []ids.ID{n.id}})
}

func (n *Node) handle(m phys.Message) {
	a, ok := m.Payload.(announce)
	if !ok {
		return
	}
	full := append(append([]ids.ID(nil), a.Path...), n.id)
	if back := sroute.Route(full).Reverse().ElideLoops(); len(back) >= 2 {
		if old, exists := n.routes[a.Origin]; !exists || back.Hops() < old.Hops() {
			n.routes[a.Origin] = back
		}
	}
	if !n.known.Add(a.Origin) {
		return // duplicate: suppress the re-flood
	}
	n.net.Broadcast(n.id, KindAnnounce, announce{Origin: a.Origin, Path: full})
}

// StateSize returns the per-node state in identifiers plus route entries —
// Θ(n), the cost of full knowledge.
func (n *Node) StateSize() int { return n.known.Len() + len(n.routes) }

// Cluster drives floodboot over a network.
type Cluster struct {
	Net          phys.Transport
	Nodes        map[ids.ID]*Node
	probeStopped bool
}

// NewCluster creates and starts one node per topology member. Nodes start
// in ascending identifier order — map-order iteration here would reshuffle
// the initial flood's event sequence (and with it every engine RNG draw)
// between runs of the same seed.
func NewCluster(net phys.Transport) *Cluster {
	c := &Cluster{Net: net, Nodes: make(map[ids.ID]*Node)}
	order := net.Topology().Nodes()
	for _, v := range order {
		c.Nodes[v] = NewNode(net, v)
	}
	for _, v := range order {
		c.Nodes[v].Start()
	}
	return c
}

// SuccMap snapshots the locally computed successor pointers.
func (c *Cluster) SuccMap() vring.SuccMap {
	s := make(vring.SuccMap, len(c.Nodes))
	for v, n := range c.Nodes {
		if succ, ok := n.Successor(); ok {
			s[v] = succ
		}
	}
	return s
}

// VirtualGraph returns the successor structure as an undirected graph —
// the view the convergence probes measure, matching the contract of the
// other bootstrap protocols' VirtualGraph.
func (c *Cluster) VirtualGraph() *graph.Graph {
	g := graph.New()
	for v, n := range c.Nodes {
		g.AddNode(v)
		if succ, ok := n.Successor(); ok {
			g.AddEdge(v, succ)
		}
	}
	return g
}

// AttachProbe samples the cluster's successor structure into the
// convergence probe every `every` ticks, starting one interval from now,
// until Stop — the same observation contract as ssr.Cluster.AttachProbe.
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

// Stop halts any attached probes. Flood nodes have no periodic activity of
// their own; the flood quiesces once every announcement has propagated.
func (c *Cluster) Stop() { c.probeStopped = true }

// Consistent reports whether every node's local knowledge yields the
// globally consistent ring.
func (c *Cluster) Consistent() bool {
	if len(c.Nodes) < 2 {
		return true
	}
	all := make([]ids.ID, 0, len(c.Nodes))
	for v := range c.Nodes {
		all = append(all, v)
	}
	return c.SuccMap().GloballyConsistent(all)
}

// RunUntilConsistent drives the engine until consistency or the deadline.
func (c *Cluster) RunUntilConsistent(deadline sim.Time) (sim.Time, bool) {
	return c.Net.Engine().RunUntilHolds(deadline, 8, c.Consistent)
}
