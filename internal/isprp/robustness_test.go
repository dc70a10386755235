package isprp

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sroute"
)

func TestFloodSuppression(t *testing.T) {
	// Once a node relays an origin, smaller or repeated origins must not be
	// re-flooded; a strictly larger origin must be.
	topo := graph.Line([]ids.ID{1, 2, 3})
	net := newNet(t, topo, 1)
	c := NewCluster(net, Config{EnableFlood: false})
	net.Engine().RunUntil(40, nil)
	_ = c
	before := net.Counters().Get(KindFlood)
	inject := func(origin ids.ID) {
		net.Send(phys.Message{From: 1, To: 2, Kind: KindFlood,
			Payload: floodPayload{Origin: origin, Path: []ids.ID{1}}})
		// The injected frame itself is counted; run the cascade.
		net.Engine().RunUntil(net.Engine().Now()+64, nil)
	}
	inject(50)
	afterFirst := net.Counters().Get(KindFlood)
	if afterFirst <= before+1 {
		t.Fatal("first flood should cascade beyond the injected frame")
	}
	inject(50) // duplicate: only the injected frame, no relays
	afterDup := net.Counters().Get(KindFlood)
	if afterDup != afterFirst+1 {
		t.Errorf("duplicate origin re-flooded: %d -> %d", afterFirst, afterDup)
	}
	inject(40) // smaller: suppressed too
	afterSmaller := net.Counters().Get(KindFlood)
	if afterSmaller != afterDup+1 {
		t.Errorf("smaller origin re-flooded: %d -> %d", afterDup, afterSmaller)
	}
	inject(60) // larger: must cascade again
	afterLarger := net.Counters().Get(KindFlood)
	if afterLarger <= afterSmaller+1 {
		t.Error("larger origin should cascade")
	}
}

func TestFloodTeachesRoutes(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2, 3, 4})
	net := newNet(t, topo, 2)
	c := NewCluster(net, Config{EnableFlood: true, FloodDelay: 8})
	net.Engine().RunUntil(400, nil)
	// The representative (4) flooded; every node must hold a valid route
	// back to it.
	for v, n := range c.Nodes {
		if v == 4 {
			continue
		}
		r := n.Cache().Route(4)
		if r == nil {
			t.Fatalf("node %s has no route to the representative", v)
		}
		if err := r.ValidOn(topo); err != nil {
			t.Fatalf("flood-learned route invalid: %v", err)
		}
	}
}

func TestMalformedFloodIgnored(t *testing.T) {
	topo := graph.Line([]ids.ID{1, 2})
	net := newNet(t, topo, 1)
	NewCluster(net, Config{EnableFlood: false})
	net.Send(phys.Message{From: 1, To: 2, Kind: KindFlood, Payload: "garbage"})
	net.Engine().RunUntil(100, nil)
	// No panic, no cascade.
	if got := net.Counters().Get(KindFlood); got != 1 {
		t.Errorf("garbage flood cascaded: %d frames", got)
	}
}

func TestUpdateComposesRoute(t *testing.T) {
	// B receives update(A→C) and must compose B→C = (B→A) ++ (A→C),
	// adopting C as successor when it lies between.
	topo := graph.Line([]ids.ID{10, 20, 30}) // B=10, A=20, C=30
	net := newNet(t, topo, 3)
	b := NewNode(net, 10, Config{})
	NewNode(net, 20, Config{})
	NewNode(net, 30, Config{})
	b.Start(0)
	net.Engine().RunUntil(40, nil)
	if s, _ := b.Successor(); s != 20 {
		t.Fatalf("precondition: succ = %v, want 20", s)
	}
	ac, _ := sroute.New(20, 30)
	net.Send(phys.Message{From: 20, To: 10, Kind: KindUpdate,
		Payload: &phys.SRPacket{Route: mustR(t, 20, 10), Hop: 0, Kind: KindUpdate,
			Payload: updatePayload{BetterRoute: ac}}})
	net.Engine().RunUntil(net.Engine().Now()+64, nil)
	r := b.Cache().Route(30)
	if r == nil {
		t.Fatal("update did not teach the composed route")
	}
	if err := r.ValidOn(net.Topology()); err != nil {
		t.Fatalf("composed route invalid: %v", err)
	}
	// 30 is not between 10 and succ 20, so the successor must not change.
	if s, _ := b.Successor(); s != 20 {
		t.Errorf("successor changed to %v", s)
	}
}

func mustR(t *testing.T, nodes ...ids.ID) sroute.Route {
	t.Helper()
	r, err := sroute.New(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOverhearLearnsSegments(t *testing.T) {
	// A packet relayed through node 2 teaches it routes to both endpoints.
	topo := graph.Line([]ids.ID{1, 2, 3})
	net := newNet(t, topo, 5)
	NewNode(net, 1, Config{})
	mid := NewNode(net, 2, Config{})
	NewNode(net, 3, Config{})
	courier := phys.NewCourier(net, 1)
	courier.Send(mustR(t, 1, 2, 3), KindNotify, nil)
	net.Engine().RunUntil(100, nil)
	if mid.Cache().Route(1) == nil || mid.Cache().Route(3) == nil {
		t.Error("relay node failed to learn overheard segments")
	}
}
