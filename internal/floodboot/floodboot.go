// Package floodboot is the brute-force bootstrap baseline: every node
// floods its identifier once over the physical network, so eventually every
// node knows every identifier and can compute its ring neighbors locally by
// sorting. It trivially achieves global consistency — at O(n·E) message
// cost and Θ(n) state per node, which is exactly the expense ISPRP's single
// representative flood reduces and linearization eliminates. The E6x
// experiment uses it as the upper anchor of the message-cost comparison.
package floodboot

import (
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sroute"
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
	node.Attach(net, id, n.handle, n.onLease)
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
		if r.Via(peer) {
			delete(n.routes, v)
		}
	}
}

// ID returns the node identifier.
func (n *Node) ID() ids.ID { return n.id }

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

// VirtualNeighbors returns the locally computed successor as this node's
// one virtual edge — the view the convergence probes measure, matching the
// other bootstrap protocols.
func (n *Node) VirtualNeighbors() []ids.ID {
	if succ, ok := n.Successor(); ok {
		return []ids.ID{succ}
	}
	return nil
}

// Start floods this node's identifier.
func (n *Node) Start() {
	n.net.Broadcast(n.id, KindAnnounce, announce{Origin: n.id, Path: []ids.ID{n.id}})
}

// Stop does nothing: a flood node has no periodic activity of its own; the
// flood quiesces once every announcement has propagated.
func (n *Node) Stop() {}

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

// Cluster drives floodboot over a network — the shared driver of package
// node.
type Cluster struct {
	node.Cluster[*Node]
}

// NewCluster creates and starts one node per topology member.
func NewCluster(net phys.Transport) *Cluster {
	c := &Cluster{}
	c.Cluster = node.NewCluster(net, c.Consistent,
		func(v ids.ID) *Node { return NewNode(net, v) },
		func(_ ids.ID, n *Node) { n.Start() })
	return c
}

// Consistent reports whether every node's local knowledge yields the
// globally consistent ring.
func (c *Cluster) Consistent() bool {
	return c.SuccessorRing((*Node).Successor)
}
