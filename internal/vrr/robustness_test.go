package vrr

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
)

func TestPathLessTotalOrder(t *testing.T) {
	a := PathID{A: 1, B: 5, Seq: 1}
	b := PathID{A: 1, B: 5, Seq: 2}
	c := PathID{A: 1, B: 7, Seq: 0}
	d := PathID{A: 2, B: 3, Seq: 0}
	cases := []struct {
		x, y PathID
		want bool
	}{
		{a, b, true}, {b, a, false},
		{a, c, true}, {c, a, false},
		{c, d, true}, {d, c, false},
		{a, a, false},
	}
	for _, tc := range cases {
		if got := pathLess(tc.x, tc.y); got != tc.want {
			t.Errorf("pathLess(%v,%v) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestPathEntryNext(t *testing.T) {
	p := PathID{A: 1, B: 9}
	e := &pathEntry{toA: 3, hasToA: true}
	if next, ok := e.next(p, 1); !ok || next != 3 {
		t.Errorf("next toward A = %v,%v", next, ok)
	}
	if _, ok := e.next(p, 9); ok {
		t.Error("missing direction must report !ok")
	}
}

func TestMalformedFramesIgnored(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	net.Engine().RunUntil(64, nil)
	for _, kind := range []string{KindSetup, KindData, KindDiscover, KindDiscoverAck} {
		net.Send(phys.Message{From: 1, To: 2, Kind: kind, Payload: "garbage"})
	}
	net.Engine().RunUntil(net.Engine().Now()+64, nil)
	if c.Nodes[2].Failed != 0 {
		t.Error("garbage frames must not count as routing failures")
	}
	if !c.Nodes[2].vset.Has(1) {
		t.Error("node state corrupted by garbage frames")
	}
}

func TestDataTTLDropsLoopingPacket(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	net.Engine().RunUntil(64, nil)
	// Hand-craft a packet that has already exceeded the TTL.
	dp := dataPayload{Origin: 1, Dst: 9999, Hops: discoverTTL + 1}
	net.Send(phys.Message{From: 1, To: 2, Kind: KindData, Payload: dp})
	net.Engine().RunUntil(net.Engine().Now()+64, nil)
	if c.Nodes[2].Failed != 1 {
		t.Errorf("TTL-expired packet should be dropped and counted, Failed=%d", c.Nodes[2].Failed)
	}
}

func TestSetupOnUnknownCarrierDies(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2, 3})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	net.Engine().RunUntil(64, nil)
	// A setup whose carrier path is unknown at node 2 must die there
	// without installing forward state beyond the reverse pointer.
	bogusCarrier := PathID{A: 1, B: 3, Seq: 999}
	newPath := PathID{A: 1, B: 3, Seq: 1000}
	net.Send(phys.Message{From: 1, To: 2, Kind: KindSetup, Payload: setupPayload{
		NewPath: newPath, Target: 3, ViaPath: bogusCarrier, PrevHop: 1,
	}})
	net.Engine().RunUntil(net.Engine().Now()+64, nil)
	e := c.Nodes[2].paths[newPath]
	if e == nil {
		t.Fatal("reverse state should have been installed at the dying hop")
	}
	if _, ok := e.next(newPath, 3); ok {
		t.Error("forward state must not exist past the dead carrier")
	}
	if c.Nodes[3].paths[newPath] != nil {
		t.Error("setup must not travel past the dead carrier")
	}
}

func TestSideEmptyExcludesWrapPartner(t *testing.T) {
	topo := graph.Line([]ids.ID{10, 20, 30})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{CloseRing: true})
	if _, ok := c.RunUntilConsistent(200000); !ok {
		t.Fatal("no convergence")
	}
	min := c.Nodes[10]
	if _, has := min.wrap.Partner(ids.Left); !has {
		t.Fatal("min should hold a wrap partner")
	}
	if !min.sideEmpty(ids.Left) {
		t.Error("the wrap partner must not count as a line-left neighbor")
	}
	if min.sideEmpty(ids.Right) {
		t.Error("min has a real right neighbor")
	}
}

func TestBackoffLimitsReintroductions(t *testing.T) {
	topo := graph.New()
	topo.AddEdge(1, 3)
	topo.AddEdge(2, 3)
	net := newNet(t, topo, 5)
	c := NewCluster(net, Config{})
	// Long run: node 3 keeps re-introducing (1,2); with exponential backoff
	// the number of distinct setup paths for the pair stays logarithmic in
	// elapsed time rather than linear.
	net.Engine().RunUntil(120000, nil)
	pairPaths := 0
	for p := range c.Nodes[3].paths {
		if p.A == 1 && p.B == 2 {
			pairPaths++
		}
	}
	// 120000 ticks / (32·16) = ~230 fixed-interval reintroductions; with
	// backoff the count must stay in single digits.
	if pairPaths > 10 {
		t.Errorf("backoff failed: %d paths created for one pair", pairPaths)
	}
	if pairPaths == 0 {
		t.Error("the pair was never introduced at all")
	}
}

func TestStopHaltsBeaconsAndTicks(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	net.Engine().RunUntil(200, nil)
	c.Stop()
	before := net.Counters().Total()
	net.Engine().RunUntil(net.Engine().Now()+2000, nil)
	after := net.Counters().Total()
	if after > before+4 { // allow in-flight stragglers
		t.Errorf("traffic continued after Stop: %d -> %d", before, after)
	}
}

func TestDuplicateSetupAckTolerated(t *testing.T) {
	// A jitter-duplicated SetupAck must be idempotent: the path stays
	// confirmed and the vset gains the endpoint exactly once.
	topo := graph.Line([]ids.ID{1, 2})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{})
	net.Engine().RunUntil(64, nil)
	n2 := c.Nodes[2]
	var path PathID
	found := false
	for p, e := range n2.paths {
		if e.confirmed {
			path, found = p, true
			break
		}
	}
	if !found {
		t.Fatal("no confirmed path to replay an ack against")
	}
	before := n2.vset.Len()
	for i := 0; i < 2; i++ {
		net.Send(phys.Message{From: 1, To: 2, Kind: KindSetupAck, Payload: setupAckPayload{
			Path: path, Toward: 2, PrevHop: 1,
		}})
		net.Engine().RunUntil(net.Engine().Now()+8, nil)
	}
	if !n2.paths[path].confirmed {
		t.Error("duplicate ack un-confirmed the path")
	}
	if n2.vset.Len() != before {
		t.Errorf("vset grew from %d to %d on duplicate acks", before, n2.vset.Len())
	}
}

func TestJitterReorderingConverges(t *testing.T) {
	// With per-frame jitter larger than the hop latency, setup halves and
	// their acks arrive out of order; VRR must still converge and must not
	// leave unconfirmed path state growing without bound.
	topo := graph.Line([]ids.ID{10, 20, 30, 40, 50})
	net := phys.NewNetwork(sim.NewEngine(9), topo, phys.WithJitter(8))
	c := NewCluster(net, Config{})
	if at, ok := c.RunUntilConsistent(200000); !ok {
		t.Fatalf("VRR did not converge under jitter by t=%d", at)
	}
	for v, n := range c.Nodes {
		unconfirmed := 0
		for _, e := range n.paths {
			if !e.confirmed {
				unconfirmed++
			}
		}
		if unconfirmed > 64 {
			t.Errorf("node %v holds %d unconfirmed paths", v, unconfirmed)
		}
	}
	c.Stop()
}
