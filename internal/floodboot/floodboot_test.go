package floodboot

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/phys"
	"repro/internal/sim"
)

func TestFullKnowledgeAndConsistency(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoER, 24, graph.RandomIDs, 3)
	net := phys.NewNetwork(sim.NewEngine(3), topo)
	c := NewCluster(net)
	at, ok := c.RunUntilConsistent(40000)
	if !ok {
		t.Fatalf("flood bootstrap failed by t=%d", at)
	}
	n := len(c.Nodes)
	for v, node := range c.Nodes {
		if got := len(node.known); got != n {
			t.Errorf("node %s knows %d of %d", v, got, n)
		}
		if node.StateSize() < n {
			t.Errorf("node %s state %d < n", v, node.StateSize())
		}
	}
}

func TestRoutesLearnedAreValid(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoRegular, 16, graph.RandomIDs, 5)
	net := phys.NewNetwork(sim.NewEngine(5), topo)
	c := NewCluster(net)
	if _, ok := c.RunUntilConsistent(40000); !ok {
		t.Fatal("no convergence")
	}
	for v, node := range c.Nodes {
		for _, u := range node.known.Sorted() {
			if u == v {
				continue
			}
			r := node.routes[u]
			if r == nil {
				t.Fatalf("node %s lacks a route to known %s", v, u)
			}
			if err := r.ValidOn(topo); err != nil {
				t.Fatalf("invalid learned route %s: %v", r, err)
			}
			if r.Src() != v || r.Dst() != u {
				t.Fatalf("route endpoints wrong: %s", r)
			}
		}
	}
}

func TestMessageCostIsQuadraticIsh(t *testing.T) {
	// Total flood frames scale like n·E — the baseline's defining expense.
	cost := func(n int) int64 {
		topo, _ := graph.Generate(graph.TopoRegular, n, graph.RandomIDs, int64(n))
		net := phys.NewNetwork(sim.NewEngine(int64(n)), topo)
		c := NewCluster(net)
		if _, ok := c.RunUntilConsistent(80000); !ok {
			t.Fatalf("n=%d did not converge", n)
		}
		return net.Counters().Get(KindAnnounce)
	}
	c16, c64 := cost(16), cost(64)
	// n and E both grew 4×: expect ≳8× total frames (constant-degree E ~ n).
	if c64 < 8*c16 {
		t.Errorf("flood cost grew too slowly: %d -> %d", c16, c64)
	}
	t.Logf("flood frames: n=16: %d, n=64: %d", c16, c64)
}

func TestSingleNode(t *testing.T) {
	topo := graph.NewWithNodes(9)
	net := phys.NewNetwork(sim.NewEngine(1), topo)
	c := NewCluster(net)
	if _, ok := c.RunUntilConsistent(1000); !ok {
		t.Error("single node is trivially consistent")
	}
	if _, ok := c.Nodes[9].Successor(); ok {
		t.Error("lone node has no successor")
	}
}
