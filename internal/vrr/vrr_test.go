package vrr

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vring"
)

func newNet(t *testing.T, topo *graph.Graph, seed int64) *phys.Network {
	t.Helper()
	return phys.NewNetwork(sim.NewEngine(seed), topo)
}

func TestBootstrapOnLine(t *testing.T) {
	topo := graph.Line([]ids.ID{10, 20, 30, 40})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	if at, ok := c.RunUntilConsistent(60000); !ok {
		t.Fatalf("VRR did not converge by t=%d", at)
	}
}

func TestBootstrapOnRandomTopologies(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		topo, err := graph.Generate(graph.TopoER, 22, graph.RandomIDs, seed)
		if err != nil {
			t.Fatal(err)
		}
		net := newNet(t, topo, seed)
		c := NewCluster(net, Config{})
		if _, ok := c.RunUntilConsistent(200000); !ok {
			t.Errorf("seed %d: VRR not consistent", seed)
		}
		c.Stop()
	}
}

func TestNoFloodNoRepresentativeNeeded(t *testing.T) {
	// E11: linearized VRR converges without any representative mechanism:
	// a hello carries no representative, and the only message kinds are
	// hellos, setups and data.
	topo, _ := graph.Generate(graph.TopoRegular, 20, graph.RandomIDs, 5)
	net := newNet(t, topo, 5)
	c := NewCluster(net, Config{})
	if _, ok := c.RunUntilConsistent(200000); !ok {
		t.Fatal("VRR did not converge without a representative")
	}
	for _, kc := range net.Counters().Sent() {
		switch kc.Kind {
		case phys.BeaconKind, KindSetup, KindSetupAck, KindData:
		default:
			t.Errorf("unexpected message kind %s", kc.Kind)
		}
	}
}

func TestSetupInstallsPathState(t *testing.T) {
	// Physical star 1-3, 2-3: node 3's virtual neighbors 1 and 2 are both
	// on its left, so Algorithm 1 makes 3 introduce them. The setup must
	// leave (1,2) forwarding state at all three nodes with 3 as pivot.
	topo := graph.New()
	topo.AddEdge(1, 3)
	topo.AddEdge(2, 3)
	net := newNet(t, topo, 2)
	c := NewCluster(net, Config{})
	if _, ok := c.RunUntilConsistent(60000); !ok {
		t.Fatal("no convergence")
	}
	if !c.Nodes[1].vset.Has(2) || !c.Nodes[2].vset.Has(1) {
		t.Error("endpoints did not learn each other")
	}
	foundPivot := false
	for p := range c.Nodes[3].paths {
		if p.A == 1 && p.B == 2 {
			e := c.Nodes[3].paths[p]
			if e.hasToA && e.hasToB {
				foundPivot = true
			}
		}
	}
	if !foundPivot {
		t.Error("pivot node lacks two-sided (1,2) path state")
	}
}

func TestDataRoutingAfterConvergence(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoER, 18, graph.RandomIDs, 7)
	net := newNet(t, topo, 7)
	c := NewCluster(net, Config{CloseRing: true})
	if _, ok := c.RunUntilConsistent(400000); !ok {
		t.Fatal("no convergence")
	}
	c.Stop()
	nodes := topo.Nodes()
	delivered := 0
	attempts := 0
	for i := 0; i < len(nodes); i++ {
		src, dst := nodes[i], nodes[(i+len(nodes)/2)%len(nodes)]
		if src == dst {
			continue
		}
		attempts++
		got := false
		c.Nodes[dst].OnDeliver = func(d Delivery) {
			if d.Origin == src {
				got = true
			}
		}
		if !c.Nodes[src].SendData(dst, nil) {
			continue
		}
		net.Engine().RunUntil(net.Engine().Now()+5000, func() bool { return got })
		if got {
			delivered++
		}
	}
	if delivered != attempts {
		t.Errorf("delivered %d of %d", delivered, attempts)
	}
}

func TestSelfDelivery(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	got := false
	c.Nodes[1].OnDeliver = func(d Delivery) { got = d.Dst == 1 }
	if !c.Nodes[1].SendData(1, nil) || !got {
		t.Error("self delivery must be immediate")
	}
}

// TestLoopyVsetResolvedByLinearization injects the Fig. 1 loopy state as
// VRR virtual neighbor sets and verifies the linearized bootstrap
// straightens it without any representative mechanism (E11 + E1).
func TestLoopyVsetResolvedByLinearization(t *testing.T) {
	loopy := vring.LoopyExample()
	topo := loopy.ToGraph()
	net := newNet(t, topo, 9)
	c := NewCluster(net, Config{})
	// The physical neighbors equal the loopy virtual edges, so the injected
	// state IS the initial vset after discovery.
	if _, ok := c.RunUntilConsistent(200000); !ok {
		t.Fatalf("loopy vsets not linearized: %v", vring.AnalyzeLine(c.VirtualGraph()))
	}
}

func TestStateSummaryAndAccessors(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2, 3})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	c.RunUntilConsistent(60000)
	sizes := c.StateSummary()
	if len(sizes) != 3 {
		t.Fatalf("StateSummary = %v", sizes)
	}
	for _, s := range sizes {
		if s == 0 {
			t.Error("every node should hold some path state")
		}
	}
	if c.Nodes[1].ID() != 1 {
		t.Error("ID broken")
	}
	if c.Nodes[2].PathCount() == 0 {
		t.Error("PathCount broken")
	}
	vn := c.Nodes[2].VirtualNeighbors()
	if len(vn) < 2 {
		t.Errorf("node 2 virtual neighbors = %v", vn)
	}
}

func TestConsistentDegenerate(t *testing.T) {
	topo := graph.NewWithNodes(9)
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	if !c.Consistent() {
		t.Error("single node trivially consistent")
	}
}

func TestPathIDOther(t *testing.T) {
	p := PathID{A: 1, B: 5}
	if p.Other(1) != 5 || p.Other(5) != 1 {
		t.Error("Other broken")
	}
}
