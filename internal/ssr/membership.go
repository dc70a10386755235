package ssr

import "repro/internal/ids"

// Join adds a new node to a running cluster. The caller must already have
// attached the node's physical links (net.AddLink); Join registers the SSR
// protocol instance, seeds its cache from the physical neighborhood
// (E_v := E_p for the newcomer) and starts its maintenance tick. The
// surrounding linearization then splices the node into the virtual ring —
// no coordinator, no flood, exactly the §4 machinery.
func (c *Cluster) Join(v ids.ID) *Node {
	n := NewNode(c.Net, v, c.cfg)
	c.Nodes[v] = n
	n.Start(startJitter(c.Net, c.cfg))
	// A new extremal node invalidates previously-correct wrap edges; the
	// closure tick's re-validation (node.Wrap.Tick) heals them as knowledge
	// spreads.
	return n
}

// Leave fails a node without any cooperative shutdown: the node simply
// goes dark. Survivors notice through the keepalive failure detector and
// re-linearize around the gap. Leave removes the node from the oracle's
// membership but deliberately does NOT purge any caches — detection must be
// organic.
func (c *Cluster) Leave(v ids.ID) {
	n, ok := c.Nodes[v]
	if !ok {
		return
	}
	n.Stop()
	c.Net.FailNode(v)
	delete(c.Nodes, v)
}

// LeaveGraceful removes a node with explicit notice: every survivor purges
// its state for the departed node immediately (the best case a departure
// protocol could achieve). Used as the fast-path comparison for the churn
// experiments.
func (c *Cluster) LeaveGraceful(v ids.ID) {
	n, ok := c.Nodes[v]
	if !ok {
		return
	}
	n.Stop()
	c.Net.FailNode(v)
	delete(c.Nodes, v)
	for _, s := range c.Nodes {
		s.drop(v, "leave")
		s.dropRevNbr(v)
		s.wrap.Forget(v)
	}
}
