package isprp

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
	"repro/internal/trace"
	"repro/internal/vring"
)

func newNet(t *testing.T, topo *graph.Graph, seed int64) *phys.Network {
	t.Helper()
	return phys.NewNetwork(sim.NewEngine(seed), topo)
}

func TestConvergesOnLineTopology(t *testing.T) {
	topo := graph.Line([]ids.ID{10, 20, 30, 40, 50})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{EnableFlood: true})
	at, ok := c.RunUntilConsistent(20000)
	if !ok {
		t.Fatalf("ISPRP did not converge on a line; succ=%v", succMap(c))
	}
	t.Logf("line converged at t=%d, msgs=%d", at, net.Counters().Total())
	if succMap(c).Classify() != vring.Consistent {
		t.Error("oracle disagrees with Classify")
	}
}

func TestConvergesOnRandomTopologies(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		topo, err := graph.Generate(graph.TopoER, 24, graph.RandomIDs, seed)
		if err != nil {
			t.Fatal(err)
		}
		net := newNet(t, topo, seed)
		c := NewCluster(net, Config{EnableFlood: true})
		if _, ok := c.RunUntilConsistent(60000); !ok {
			t.Errorf("seed %d: not consistent: %v", seed, succMap(c).Classify())
		}
		c.Stop()
	}
}

func TestFloodHappensAndIsCounted(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoRegular, 20, graph.RandomIDs, 7)
	net := newNet(t, topo, 7)
	c := NewCluster(net, Config{EnableFlood: true})
	c.RunUntilConsistent(60000)
	if net.Counters().Get(KindFlood) == 0 {
		t.Error("ISPRP baseline must flood")
	}
	// The representative flood touches every link at least once, so flood
	// frames should be at least the number of nodes.
	if net.Counters().Get(KindFlood) < int64(topo.NumNodes()) {
		t.Errorf("flood frames = %d, suspiciously few for %d nodes",
			net.Counters().Get(KindFlood), topo.NumNodes())
	}
}

// injectLoopy builds the Fig. 1 scenario: physical topology = the loopy
// graph, every node's successor preloaded to the loopy pointer.
func injectLoopy(t *testing.T, seed int64, cfg Config) (*phys.Network, *Cluster) {
	t.Helper()
	loopySucc := vring.LoopyExample()
	topo := loopySucc.ToGraph() // physical links mirror the loopy virtual edges
	net := newNet(t, topo, seed)
	c := NewClusterFrom(net, cfg, loopySucc)
	return net, c
}

// TestSameSeedSameEventOrder: the Fig. 1 scenario, twenty times with one
// seed, must produce one message-level event sequence. Nodes 1, 9 and 25
// (and 13, 21) share a start offset, so a cluster that starts its nodes in
// map order reorders their first ticks from run to run.
func TestSameSeedSameEventOrder(t *testing.T) {
	loopy := vring.LoopyExample()
	orders := map[uint64]int{}
	for run := 0; run < 20; run++ {
		rec := &trace.Recorder{}
		net := phys.NewNetwork(sim.NewEngine(3), loopy.ToGraph(), phys.WithTracer(rec))
		c := NewClusterFrom(net, Config{EnableFlood: true}, loopy)
		if _, ok := c.RunUntilConsistent(60000); !ok {
			t.Fatal("flood failed to resolve the loopy state")
		}
		c.Stop()
		h := fnv.New64a()
		for _, e := range rec.Events() {
			fmt.Fprintf(h, "%d %s %d %d %s\n", e.T, e.Type, e.Node, e.Peer, e.Kind)
		}
		orders[h.Sum64()]++
	}
	if len(orders) != 1 {
		t.Errorf("%d distinct event orders from one seed: %v", len(orders), orders)
	}
}

func TestLoopyStateStuckWithoutFlood(t *testing.T) {
	// E1 (negative half): the loopy state is locally consistent, so without
	// the flood ISPRP never escapes it.
	_, c := injectLoopy(t, 3, Config{EnableFlood: false})
	_, ok := c.RunUntilConsistent(20000)
	if ok {
		t.Fatal("loopy state must persist without flooding")
	}
	if got := succMap(c).Classify(); got != vring.Loopy {
		t.Errorf("state = %v, want still loopy", got)
	}
}

func TestLoopyStateResolvedByFlood(t *testing.T) {
	// E1 (positive half): with the representative flood, ISPRP detects and
	// iteratively resolves the loopy state.
	_, c := injectLoopy(t, 3, Config{EnableFlood: true})
	if _, ok := c.RunUntilConsistent(60000); !ok {
		t.Fatalf("flood failed to resolve loopy state: %v (%v)",
			succMap(c).Classify(), succMap(c))
	}
}

// injectSeparateRings builds the Fig. 2 scenario: two virtual rings over a
// connected physical graph (ring edges plus one physical bridge).
func injectSeparateRings(t *testing.T, cfg Config) (*phys.Network, *Cluster) {
	t.Helper()
	succ := vring.SeparateRingsExample()
	topo := succ.ToGraph()
	topo.AddEdge(18, 21) // physical bridge between the two islands
	net := newNet(t, topo, 5)
	c := NewClusterFrom(net, cfg, succ)
	return net, c
}

func TestSeparateRingsMergedByFlood(t *testing.T) {
	// E2: flooding crosses the physical bridge, so each island learns the
	// other's representative and the rings merge.
	_, c := injectSeparateRings(t, Config{EnableFlood: true})
	if _, ok := c.RunUntilConsistent(60000); !ok {
		t.Fatalf("rings not merged: %v (%v)", succMap(c).Classify(), succMap(c))
	}
}

func TestNotifyMessagesFlow(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2, 3})
	net := newNet(t, topo, 2)
	c := NewCluster(net, Config{EnableFlood: true})
	c.RunUntilConsistent(5000)
	if net.Counters().Get(KindNotify) == 0 {
		t.Error("no notify messages were sent")
	}
}

func TestNodeAccessors(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2})
	net := newNet(t, topo, 1)
	n := NewNode(net, 1, Config{})
	if n.ID() != 1 {
		t.Error("ID broken")
	}
	if _, ok := n.Successor(); ok {
		t.Error("fresh node has no successor")
	}
	if n.Cache().Len() != 0 {
		t.Error("fresh cache should be empty")
	}
	n.Start(0)
	if s, ok := n.Successor(); !ok || s != 2 {
		t.Errorf("after Start, successor = %v,%v, want 2", s, ok)
	}
}

func TestStopHaltsTicks(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{EnableFlood: false})
	net.Engine().RunUntil(100, nil)
	c.Stop()
	before := net.Counters().Get(KindNotify)
	net.Engine().RunUntil(1000, nil)
	after := net.Counters().Get(KindNotify)
	// One in-flight tick per node may still fire; beyond that, silence.
	if after > before+2 {
		t.Errorf("notifies kept flowing after Stop: %d -> %d", before, after)
	}
}

func TestBetweenRewiringRule(t *testing.T) {
	topo := graph.Line([]ids.ID{10, 20, 30})
	net := newNet(t, topo, 1)
	n := NewNode(net, 10, Config{})
	n.Start(0)
	// succ is 20 (only neighbor learned is 20). Learning 15 rewires; 25 not.
	topo2 := net.Topology()
	topo2.AddNode(15)
	r, _ := sroute.New(10, 20, 15)
	n.learnRoute(r)
	if s, _ := n.Successor(); s != 15 {
		t.Errorf("succ = %v, want 15 after learning a between-node", s)
	}
	r2, _ := sroute.New(10, 20, 25)
	n.learnRoute(r2)
	if s, _ := n.Successor(); s != 15 {
		t.Errorf("succ = %v, learning 25 must not rewire", s)
	}
}
