package ssr

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/sroute"
)

func TestJoinSplicesIntoRing(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoER, 20, graph.RandomIDs, 41)
	net := newNet(t, topo, 41)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded})
	if _, ok := c.RunUntilConsistent(120000); !ok {
		t.Fatal("initial bootstrap failed")
	}
	// A newcomer with an interior identifier attaches to two random nodes.
	nodes := net.Topology().Nodes()
	newcomer := nodes[0] + (nodes[len(nodes)-1]-nodes[0])/2
	for net.Topology().HasNode(newcomer) {
		newcomer++
	}
	net.Topology().AddNode(newcomer)
	net.AddLink(newcomer, nodes[2])
	net.AddLink(newcomer, nodes[len(nodes)-3])
	c.Join(newcomer)
	if _, ok := c.RunUntilConsistent(net.Engine().Now() + 200000); !ok {
		t.Fatalf("ring did not absorb the newcomer: %s", c.LineReport())
	}
	// The newcomer's line neighbors must now cache it.
	all := append([]ids.ID(nil), nodes...)
	all = append(all, newcomer)
	ids.SortAsc(all)
	var pred, succ ids.ID
	for i, v := range all {
		if v == newcomer {
			pred, succ = all[i-1], all[i+1]
		}
	}
	if c.Nodes[pred].Cache().Route(newcomer) == nil {
		t.Error("predecessor does not know the newcomer")
	}
	if c.Nodes[succ].Cache().Route(newcomer) == nil {
		t.Error("successor does not know the newcomer")
	}
}

func TestJoinNewExtremeUpdatesWrap(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoER, 14, graph.RandomIDs, 43)
	net := newNet(t, topo, 43)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded, CloseRing: true, BothDirections: true})
	if _, ok := c.RunUntilConsistent(200000); !ok {
		t.Fatal("initial bootstrap failed")
	}
	nodes := net.Topology().Nodes()
	oldMax := nodes[len(nodes)-1]
	newMax := oldMax + 1000
	net.Topology().AddNode(newMax)
	net.AddLink(newMax, nodes[1])
	net.AddLink(newMax, oldMax)
	c.Join(newMax)
	if _, ok := c.RunUntilConsistent(net.Engine().Now() + 400000); !ok {
		t.Fatalf("wrap did not move to the new maximum: %s", c.LineReport())
	}
	min := nodes[0]
	wl, _, hasWL, _ := c.Nodes[min].WrapPartners()
	if !hasWL || wl != newMax {
		t.Errorf("min left wrap partner = %v (has=%v), want new max %v", wl, hasWL, newMax)
	}
}

func TestOrganicLeaveDetectedByKeepalives(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoRegular, 18, graph.RandomIDs, 47)
	net := newNet(t, topo, 47)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded})
	if _, ok := c.RunUntilConsistent(120000); !ok {
		t.Fatal("initial bootstrap failed")
	}
	// Pick an interior victim whose removal keeps the graph connected.
	nodes := net.Topology().Nodes()
	var victim ids.ID
	found := false
	for i := 1; i < len(nodes)-1; i++ {
		after := net.Topology().Clone()
		after.RemoveNode(nodes[i])
		if after.Connected() {
			victim = nodes[i]
			found = true
			break
		}
	}
	if !found {
		t.Skip("no safely removable node in this topology")
	}
	c.Leave(victim) // no purge: survivors must detect the silence
	if _, ok := c.RunUntilConsistent(net.Engine().Now() + 400000); !ok {
		t.Fatalf("survivors did not re-converge organically: %s", c.LineReport())
	}
	// Consistency precedes full garbage collection: recently re-gossiped
	// routes to the dead node are purged by the failure detector within a
	// few keepalive periods. Give it a settle window, then every trace of
	// the victim must be gone.
	net.Engine().RunUntil(net.Engine().Now()+10000, nil)
	for v, n := range c.Nodes {
		if n.Cache().Route(victim) != nil {
			t.Errorf("node %s still caches a route to the dead node", v)
		}
	}
	if !c.Consistent() {
		t.Error("ring should remain consistent after cleanup")
	}
}

func TestGracefulLeave(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoER, 16, graph.RandomIDs, 53)
	net := newNet(t, topo, 53)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded})
	if _, ok := c.RunUntilConsistent(120000); !ok {
		t.Fatal("initial bootstrap failed")
	}
	nodes := net.Topology().Nodes()
	var victim ids.ID
	for i := 1; i < len(nodes)-1; i++ {
		after := net.Topology().Clone()
		after.RemoveNode(nodes[i])
		if after.Connected() {
			victim = nodes[i]
			break
		}
	}
	if victim == 0 {
		t.Skip("no safely removable node")
	}
	before := net.Engine().Now()
	c.LeaveGraceful(victim)
	at, ok := c.RunUntilConsistent(before + 400000)
	if !ok {
		t.Fatalf("graceful leave broke the ring: %s", c.LineReport())
	}
	t.Logf("graceful-leave reconvergence took %d ticks", at-before)
	c.Leave(9999999) // unknown node: no-op
	c.LeaveGraceful(9999999)
}

// routesThrough counts the state survivors keep about routes that reach
// v: cached routes, reverse-neighbour routes, wrap routes (or partners) and
// lastHeard entries that contain v; past counts only the routes that pass
// v on the way to another node.
func routesThrough(c *Cluster, v ids.ID) (crossing, past int) {
	count := func(r sroute.Route) {
		if i := r.IndexOf(v); i >= 0 {
			crossing++
			if i < len(r)-1 {
				past++
			}
		}
	}
	for _, s := range c.Nodes {
		s.Cache().Each(func(_ ids.ID, r sroute.Route) { count(r) })
		for _, e := range s.revNbrs {
			count(e.route)
		}
		for _, d := range [2]ids.Dir{ids.Left, ids.Right} {
			if p, ok := s.wrap.Partner(d); ok && p == v {
				crossing++
			} else if ok {
				count(s.wrap.State(d))
			}
		}
		if _, ok := s.lastHeard[v]; ok {
			crossing++
		}
	}
	return crossing, past
}

// After LeaveGraceful(v) no survivor keeps a route that crosses v: the
// routes through v are as dead as the routes to it, and the oracle must not
// count them.
func TestLeaveGracefulPurgesRoutesThroughNode(t *testing.T) {
	topo, _ := graph.Generate(graph.TopoER, 24, graph.RandomIDs, 1)
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded, CloseRing: true})
	if _, ok := c.RunUntilConsistent(120000); !ok {
		t.Fatal("initial bootstrap failed")
	}
	// The interior node most routes pass through, whose removal keeps the
	// graph connected.
	nodes := net.Topology().Nodes()
	var victim ids.ID
	most := 0
	for _, v := range nodes[1 : len(nodes)-1] {
		after := net.Topology().Clone()
		after.RemoveNode(v)
		if _, past := routesThrough(c, v); after.Connected() && past > most {
			victim, most = v, past
		}
	}
	if most == 0 {
		t.Fatal("no removable node carries a route to another node")
	}
	c.LeaveGraceful(victim)
	if crossing, _ := routesThrough(c, victim); crossing != 0 {
		t.Errorf("after LeaveGraceful(%s), survivors keep %d routes that cross it (%d passed it before)", victim, crossing, most)
	}
	if _, ok := c.RunUntilConsistent(net.Engine().Now() + 400000); !ok {
		t.Fatalf("survivors did not re-converge: %s", c.LineReport())
	}
}

func TestJoinIntoSingletonCluster(t *testing.T) {
	topo := graph.NewWithNodes(100)
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	net.Topology().AddNode(200)
	net.AddLink(100, 200)
	c.Join(200)
	if _, ok := c.RunUntilConsistent(net.Engine().Now() + 40000); !ok {
		t.Fatal("two-node ring should be trivial")
	}
	if got := c.IDs(); len(got) != 2 || got[0] != 100 || got[1] != 200 {
		t.Errorf("members = %v, want [100 200]", got)
	}
}

func TestMobilityKeepsRingConsistent(t *testing.T) {
	// E12: a MANET whose radios move (random waypoint). The virtual ring is
	// bootstrapped once; mobility then rewires the physical graph while SSR
	// keeps running. After motion stops the ring must still (or again) be
	// globally consistent.
	r := sim.NewEngine(61)
	nodes := graph.MakeIDs(24, graph.RandomIDs, r.Rand())
	radius := 0.45
	topo, pos := graph.UnitDisk(nodes, radius, r.Rand())
	net := newPhysWithEngine(r, topo)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded})
	if _, ok := c.RunUntilConsistent(200000); !ok {
		t.Fatal("initial bootstrap failed")
	}
	mob := newMobility(net, pos, radius)
	mob.Start()
	net.Engine().RunUntil(net.Engine().Now()+3000, nil)
	mob.Stop()
	t.Logf("mobility produced %d link changes", mob.LinkChanges())
	if _, ok := c.RunUntilConsistent(net.Engine().Now() + 400000); !ok {
		t.Fatalf("ring not consistent after mobility: %s", c.LineReport())
	}
}
