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
		c.OnDeliver = func(p SRPacket) { delivered[v] = append(delivered[v], p) }
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
	couriers[2].OnUndeliverable = func(p SRPacket) { failed = append(failed, p) }
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
	couriers[2].OnUndeliverable = func(p SRPacket) { bad = append(bad, p) }
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
