package phys

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/sroute"
)

func courierNet(t *testing.T, n int) (*Network, map[ids.ID]*Courier, map[ids.ID][]SRPacket) {
	t.Helper()
	_, net := lineNet(t, n)
	couriers := make(map[ids.ID]*Courier)
	delivered := make(map[ids.ID][]SRPacket)
	for i := 1; i <= n; i++ {
		v := ids.ID(i)
		c := NewCourier(net, v)
		c.OnDeliver = func(p SRPacket) {
			p.Route = p.Route.Clone() // the packet's route is reused once the hook returns
			delivered[v] = append(delivered[v], p)
		}
		couriers[v] = c
		net.Register(v, HandlerFunc(func(m Message) {
			if !c.Handle(m) {
				t.Errorf("node %s got non-courier frame", v)
			}
		}))
	}
	return net, couriers, delivered
}

func TestCourierDeliversAlongRoute(t *testing.T) {
	net, couriers, delivered := courierNet(t, 4)
	r, _ := sroute.New(1, 2, 3, 4)
	if !couriers[1].Send(r, "t:pkt", "hello") {
		t.Fatal("Send failed")
	}
	net.Engine().Run(0)
	if len(delivered[4]) != 1 || delivered[4][0].Payload != "hello" {
		t.Fatalf("delivery = %v", delivered[4])
	}
	if len(delivered[2]) != 0 || len(delivered[3]) != 0 {
		t.Error("intermediate nodes must forward, not deliver")
	}
	// 3 hops = 3 transmissions of the kind.
	if net.Counters().Get("t:pkt") != 3 {
		t.Errorf("transmissions = %d, want 3", net.Counters().Get("t:pkt"))
	}
}

func TestCourierOnForward(t *testing.T) {
	net, couriers, _ := courierNet(t, 3)
	var seen []ids.ID
	couriers[2].OnForward = func(p SRPacket) { seen = append(seen, p.Route[p.Hop]) }
	r, _ := sroute.New(1, 2, 3)
	couriers[1].Send(r, "t:pkt", nil)
	net.Engine().Run(0)
	if len(seen) != 1 || seen[0] != 2 {
		t.Errorf("OnForward saw %v", seen)
	}
}

func TestCourierRejectsForeignRoute(t *testing.T) {
	_, couriers, _ := courierNet(t, 3)
	r, _ := sroute.New(2, 3)
	if couriers[1].Send(r, "t:pkt", nil) {
		t.Error("route not starting at self must be rejected")
	}
	short := sroute.Route{1}
	if couriers[1].Send(short, "t:pkt", nil) {
		t.Error("1-node route must be rejected")
	}
}

func TestCourierUndeliverableBrokenLink(t *testing.T) {
	net, couriers, delivered := courierNet(t, 4)
	var failed []SRPacket
	couriers[2].OnUndeliverable = func(p SRPacket) {
		p.Route = p.Route.Clone()
		failed = append(failed, p)
	}
	net.RemoveLink(2, 3)
	r, _ := sroute.New(1, 2, 3, 4)
	couriers[1].Send(r, "t:pkt", nil)
	net.Engine().Run(0)
	if len(delivered[4]) != 0 {
		t.Error("packet should not arrive across a broken link")
	}
	if len(failed) != 1 {
		t.Errorf("OnUndeliverable fired %d times, want 1", len(failed))
	}
}

func TestCourierCorruptHopDropped(t *testing.T) {
	net, couriers, delivered := courierNet(t, 3)
	var bad []SRPacket
	couriers[2].OnUndeliverable = func(p SRPacket) {
		p.Route = p.Route.Clone()
		bad = append(bad, p)
	}
	// Hand-craft a frame whose route does not list node 2 at the next hop.
	r, _ := sroute.New(1, 3, 2)
	net.Send(Message{From: 1, To: 2, Kind: "t:pkt", Payload: &SRPacket{Route: r, Hop: 0, Kind: "t:pkt"}})
	net.Engine().Run(0)
	if len(bad) != 1 {
		t.Errorf("corrupt packet should be flagged, got %v", bad)
	}
	if len(delivered[2]) != 0 {
		t.Error("corrupt packet must not be delivered")
	}
}

// TestCourierValuePacketIsNotCourierTraffic: a packet travels as the
// *SRPacket its Send boxed; a value SRPacket, or a nil pointer, is some
// other layer's payload and is left to the caller.
func TestCourierValuePacketIsNotCourierTraffic(t *testing.T) {
	_, net := lineNet(t, 2)
	c := NewCourier(net, 2)
	c.OnDeliver = func(p SRPacket) { t.Errorf("delivered %+v", p) }
	r, _ := sroute.New(1, 2)
	for _, payload := range []any{SRPacket{Route: r, Kind: "t:pkt"}, (*SRPacket)(nil)} {
		if c.Handle(Message{From: 1, To: 2, Kind: "t:pkt", Payload: payload}) {
			t.Errorf("Handle(%#v) = true, want false", payload)
		}
	}
}

func TestCourierRouteIsCloned(t *testing.T) {
	net, couriers, delivered := courierNet(t, 3)
	r, _ := sroute.New(1, 2, 3)
	couriers[1].Send(r, "t:pkt", nil)
	r[1] = 99 // mutate after send: must not affect the in-flight packet
	net.Engine().Run(0)
	if len(delivered[3]) != 1 {
		t.Error("mutating the caller's route corrupted the packet")
	}
}

// TestCourierRecyclesPackets: a delivered packet, and one that could not
// go on, returns to the network's free list, which every courier on the
// network shares; the next Send reuses it and its route buffer. A
// hand-built packet is left alone.
func TestCourierRecyclesPackets(t *testing.T) {
	net, couriers, delivered := courierNet(t, 4)
	var pkts []*SRPacket
	net.Register(5, HandlerFunc(func(m Message) { // a link-layer tap on node 5
		if p, ok := m.Payload.(*SRPacket); ok {
			pkts = append(pkts, p)
		}
	}))
	net.AddLink(1, 5)
	if couriers[1].packets != net.Packets() || couriers[4].packets != net.Packets() {
		t.Fatal("couriers must share their network's packet list")
	}
	send := func(c *Courier, route ...ids.ID) {
		t.Helper()
		r, _ := sroute.New(route...)
		c.Send(r, "t:pkt", len(pkts))
		net.Engine().Run(0)
	}
	send(couriers[1], 1, 5)
	if net.Packets().free != nil {
		t.Fatal("a packet the tap swallowed must not be on the free list")
	}
	send(couriers[1], 1, 2, 3, 4)
	first := net.Packets().free
	if first == nil || first.Payload != nil {
		t.Fatalf("delivered packet not recycled (or payload kept): %+v", first)
	}
	send(couriers[4], 4, 3, 2, 1)
	if net.Packets().free != first || len(delivered[1]) != 1 || !delivered[1][0].Route.Equal(sroute.Route{4, 3, 2, 1}) {
		t.Fatalf("the second packet must reuse the first: free %p, first %p, delivered %v", net.Packets().free, first, delivered[1])
	}
	send(couriers[1], 1, 5)
	if len(pkts) != 2 || pkts[1] != first || !pkts[1].Route.Equal(sroute.Route{1, 5}) || pkts[1].Payload != 1 {
		t.Fatalf("Send must take the free packet and copy the route into it: %+v", pkts)
	}

	// A hop that cannot go on ends the packet at the relay.
	net.RemoveLink(2, 3)
	send(couriers[1], 1, 2, 3)
	undeliverable := net.Packets().free
	if undeliverable == nil {
		t.Fatal("an undeliverable packet must be recycled")
	}

	forged := &SRPacket{Route: sroute.Route{1, 2}, Kind: "t:pkt"}
	net.Send(Message{From: 1, To: 2, Kind: "t:pkt", Payload: forged})
	net.Engine().Run(0)
	if net.Packets().free != undeliverable {
		t.Fatal("a hand-built packet must not go on the free list")
	}
}
