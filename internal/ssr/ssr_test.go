package ssr

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
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

func bootstrapped(t *testing.T, topo *graph.Graph, cfg Config, seed int64, deadline sim.Time) (*phys.Network, *Cluster) {
	t.Helper()
	net := newNet(t, topo, seed)
	c := NewCluster(net, cfg)
	if at, ok := c.RunUntilConsistent(deadline); !ok {
		t.Fatalf("SSR did not converge by t=%d: %s", at, c.LineReport())
	}
	return net, c
}

func TestBootstrapOnLine(t *testing.T) {
	topo := graph.Line([]ids.ID{10, 20, 30, 40, 50})
	_, c := bootstrapped(t, topo, Config{CacheMode: cache.Unbounded}, 1, 20000)
	if !graph.NewCSR(c.VirtualGraph()).SupersetOfLine() {
		t.Error("virtual graph misses line edges")
	}
}

func TestBootstrapOnRandomTopologies(t *testing.T) {
	for _, topoName := range []graph.Topology{graph.TopoER, graph.TopoRegular, graph.TopoUnitDisk} {
		topo, err := graph.Generate(topoName, 24, graph.RandomIDs, 11)
		if err != nil {
			t.Fatal(err)
		}
		net := newNet(t, topo, 11)
		c := NewCluster(net, Config{CacheMode: cache.Unbounded})
		if _, ok := c.RunUntilConsistent(120000); !ok {
			t.Errorf("%s: not consistent: %s", topoName, c.LineReport())
		}
		c.Stop()
	}
}

func TestBootstrapBoundedCache(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoER, 30, graph.RandomIDs, 5)
	net := newNet(t, topo, 5)
	c := NewCluster(net, Config{CacheMode: cache.Bounded})
	if _, ok := c.RunUntilConsistent(120000); !ok {
		t.Fatalf("bounded-cache bootstrap failed: %s", c.LineReport())
	}
	// E8: bounded caches stay logarithmic.
	for v, n := range c.Nodes {
		if n.Cache().Len() > 2*ids.NumIntervals {
			t.Errorf("node %s cache grew to %d entries", v, n.Cache().Len())
		}
	}
}

func TestBootstrapWithTeardown(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoER, 20, graph.RandomIDs, 9)
	net := newNet(t, topo, 9)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded, Teardown: true})
	if _, ok := c.RunUntilConsistent(120000); !ok {
		t.Fatalf("teardown bootstrap failed: %s", c.LineReport())
	}
	if net.Counters().Get(KindTeardown) == 0 {
		t.Error("teardown enabled but no teardown messages sent")
	}
}

func TestNoFloodEver(t *testing.T) {
	// The paper's headline: linearization needs no flooding at all. No SSR
	// message kind is a flood; assert the counter set contains only ssr:*
	// point-to-point kinds.
	topo, _ := graph.Generate(graph.TopoRegular, 20, graph.RandomIDs, 3)
	net := newNet(t, topo, 3)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded, CloseRing: true, BothDirections: true})
	c.RunUntilConsistent(120000)
	for _, kc := range net.Counters().Sent() {
		switch kc.Kind {
		case KindNotify, KindAck, KindTeardown, KindDiscover, KindDiscoverAck, KindData, KindKeepalive, KindKeepAck:
		default:
			t.Errorf("unexpected message kind %s", kc.Kind)
		}
	}
}

func TestRingClosure(t *testing.T) {
	// E10: discovery establishes the wrap edge between the true extremes.
	topo, _ := graph.Generate(graph.TopoER, 25, graph.RandomIDs, 7)
	net := newNet(t, topo, 7)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded, CloseRing: true, BothDirections: true})
	if _, ok := c.RunUntilConsistent(200000); !ok {
		t.Fatalf("ring closure did not complete: %s", c.LineReport())
	}
	nodes := net.Topology().Nodes()
	min, max := nodes[0], nodes[len(nodes)-1]
	wl, _, hasWL, _ := c.Nodes[min].WrapPartners()
	if !hasWL || wl != max {
		t.Errorf("min left wrap partner = %v (has=%v), want %v", wl, hasWL, max)
	}
	_, wr, _, hasWR := c.Nodes[max].WrapPartners()
	if !hasWR || wr != min {
		t.Errorf("max right wrap partner = %v (has=%v), want %v", wr, hasWR, min)
	}
	if net.Counters().Get(KindDiscover) == 0 || net.Counters().Get(KindDiscoverAck) == 0 {
		t.Error("discovery traffic missing")
	}
}

func TestRoutingAllPairsAfterConvergence(t *testing.T) {
	// E7: once consistent, greedy routing succeeds for every pair.
	topo, _ := graph.Generate(graph.TopoER, 16, graph.RandomIDs, 13)
	_, c := bootstrapped(t, topo,
		Config{CacheMode: cache.Unbounded, CloseRing: true, BothDirections: true}, 13, 200000)
	c.Stop() // freeze the converged state; route on it
	results := c.AllPairsRouting(0, 5000)
	if len(results) != 16*15 {
		t.Fatalf("pairs routed = %d", len(results))
	}
	for _, r := range results {
		if !r.Delivered {
			t.Errorf("routing %s -> %s failed", r.Src, r.Dst)
		}
		if r.Delivered && r.Hops < r.Shortest {
			t.Errorf("%s->%s used %d hops < shortest %d (impossible)", r.Src, r.Dst, r.Hops, r.Shortest)
		}
	}
}

func TestRoutingStretchReasonable(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoRegular, 20, graph.RandomIDs, 17)
	_, c := bootstrapped(t, topo,
		Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true}, 17, 300000)
	c.Stop()
	results := c.AllPairsRouting(120, 5000)
	var worst float64
	for _, r := range results {
		if !r.Delivered {
			t.Errorf("routing %s -> %s failed", r.Src, r.Dst)
			continue
		}
		if s := r.Stretch(); s > worst {
			worst = s
		}
	}
	if worst > 20 {
		t.Errorf("worst stretch %.1f is unreasonable", worst)
	}
	t.Logf("worst stretch: %.2f", worst)
}

// TestRoutingDeterministicAcrossRuns: two bootstraps of the same unit-disk
// network on the same seed must route the same 1024 packets over the same
// paths. Greedy forwarding picks among cached candidates that tie on
// distance and hop count, so this fails if any pick follows map order.
func TestRoutingDeterministicAcrossRuns(t *testing.T) {
	const n, packets, seed = 192, 1024, 9
	topo, err := graph.Generate(graph.TopoUnitDisk, n, graph.RandomIDs, seed)
	if err != nil {
		t.Fatal(err)
	}
	run := func() [][2]int {
		net, c := bootstrapped(t, topo,
			Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true}, seed, 1024)
		nodes := topo.Nodes()
		rng := rand.New(rand.NewSource(seed))
		out := make([][2]int, packets)
		delivered := 0
		for _, node := range c.Nodes {
			node.OnDeliver = func(d Delivery) {
				out[d.Body.(int)] = [2]int{d.Hops, d.Segments}
				delivered++
			}
		}
		// Open loop, as the benchmark's route phase: 64 packets every 4 ticks.
		eng := net.Engine()
		for i := 0; i < packets; i++ {
			i, src, dst := i, nodes[rng.Intn(n)], nodes[rng.Intn(n)]
			eng.After(sim.Time(i/64*4), func() {
				if !c.Nodes[src].SendData(dst, i) {
					t.Errorf("packet %d %s -> %s refused", i, src, dst)
				}
			})
		}
		eng.RunUntil(eng.Now()+4096, func() bool { return delivered == packets })
		if delivered != packets {
			t.Fatalf("%d of %d packets delivered", delivered, packets)
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("packet %d took (hops, segments) %v, then %v on the same seed", i, a[i], b[i])
			}
		}
	}
}

func TestSelfDelivery(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	got := false
	c.Nodes[1].OnDeliver = func(d Delivery) { got = d.Dst == 1 && d.Origin == 1 }
	if !c.Nodes[1].SendData(1, "x") || !got {
		t.Error("self delivery must be immediate")
	}
}

func TestRoutingFailsBeforeBootstrap(t *testing.T) {
	// A node with an empty cache cannot route.
	topo := graph.Line([]ids.ID{1, 2, 3})
	net := newNet(t, topo, 1)
	n := NewNode(net, 1, Config{})
	if n.SendData(3, nil) {
		t.Error("send with empty cache should fail")
	}
}

func TestLoopyStateResolvedWithoutFlooding(t *testing.T) {
	// E1, the paper's headline demo at message level: physical topology =
	// the Fig. 1 loopy graph; SSR's linearization straightens it with no
	// flood (compare isprp.TestLoopyStateStuckWithoutFlood).
	topo := vring.LoopyExample().ToGraph()
	net := newNet(t, topo, 19)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded})
	if _, ok := c.RunUntilConsistent(60000); !ok {
		t.Fatalf("loopy state not resolved: %s", c.LineReport())
	}
	// Memory-mode caches legitimately keep extra shortcut routes, so the
	// line view has multi-neighbors; what must hold is that the sorted line
	// is embedded (the E2/E7 consistency criterion).
	if !graph.NewCSR(c.VirtualGraph()).SupersetOfLine() {
		t.Error("virtual graph must embed the sorted line")
	}
}

func TestSeparateRingsMergedViaPhysicalBridge(t *testing.T) {
	// E2 at message level: E_v := E_p re-seeding merges the islands.
	topo := vring.SeparateRingsExample().ToGraph()
	topo.AddEdge(18, 21)
	net := newNet(t, topo, 23)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded})
	if _, ok := c.RunUntilConsistent(60000); !ok {
		t.Fatalf("rings not merged: %s", c.LineReport())
	}
}

func TestLossyLinksStillConverge(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoER, 16, graph.RandomIDs, 29)
	net := phys.NewNetwork(sim.NewEngine(29), topo, phys.WithLoss(0.1))
	c := NewCluster(net, Config{CacheMode: cache.Unbounded})
	if _, ok := c.RunUntilConsistent(400000); !ok {
		t.Fatalf("10%% loss defeated the bootstrap: %s", c.LineReport())
	}
}

func TestChurnRecovery(t *testing.T) {
	// E9 at message level: converge, kill a node, verify the survivors
	// re-linearize around it.
	topo, _ := graph.Generate(graph.TopoER, 18, graph.RandomIDs, 31)
	net := newNet(t, topo, 31)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded})
	if _, ok := c.RunUntilConsistent(120000); !ok {
		t.Fatal("initial convergence failed")
	}
	// Fail a middle node and purge every route that crosses it (SSR detects
	// dead virtual neighbors via failed sends; here we model the detection
	// outcome directly and test the re-convergence machinery).
	victims := net.Topology().Nodes()
	c.LeaveGraceful(victims[len(victims)/2])
	// The oracle must now hold over the survivor set.
	if _, ok := c.RunUntilConsistent(net.Engine().Now() + 120000); !ok {
		t.Fatalf("no re-convergence after churn: %s", c.LineReport())
	}
}

func TestConsistentDegenerate(t *testing.T) {
	topo := graph.NewWithNodes(7)
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	if !c.Consistent() {
		t.Error("single node is trivially consistent")
	}
	topo2 := graph.Line([]ids.ID{1, 2})
	net2 := newNet(t, topo2, 1)
	c2 := NewCluster(net2, Config{CloseRing: true})
	if _, ok := c2.RunUntilConsistent(10000); !ok {
		t.Error("two nodes should converge trivially")
	}
}

func TestMessageCountsScaleSanely(t *testing.T) {
	// Convergence messages should not explode: for n=24 on a sparse graph,
	// expect well under n² notifies.
	topo, _ := graph.Generate(graph.TopoRegular, 24, graph.RandomIDs, 37)
	net, c := newNet(t, topo, 37), (*Cluster)(nil)
	c = NewCluster(net, Config{CacheMode: cache.Bounded})
	at, ok := c.RunUntilConsistent(200000)
	if !ok {
		t.Fatal("no convergence")
	}
	total := net.Counters().Total()
	if total > 24*24*40 {
		t.Errorf("suspiciously many messages: %d", total)
	}
	t.Logf("n=24 bounded: converged t=%d, msgs=%d", at, total)
}
