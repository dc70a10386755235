package phys

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
)

func lineNet(t *testing.T, n int, opts ...Option) (*sim.Engine, *Network) {
	t.Helper()
	nodes := make([]ids.ID, n)
	for i := range nodes {
		nodes[i] = ids.ID(i + 1)
	}
	e := sim.NewEngine(1)
	net := NewNetwork(e, graph.Line(nodes), opts...)
	return e, net
}

func TestSendDeliversToAdjacent(t *testing.T) {
	e, net := lineNet(t, 3)
	var got []Message
	for _, v := range []ids.ID{1, 2, 3} {
		v := v
		net.Register(v, HandlerFunc(func(m Message) { got = append(got, m) }))
	}
	if !net.Send(Message{From: 1, To: 2, Kind: "t:x", Payload: "hi"}) {
		t.Fatal("send to adjacent node should succeed")
	}
	e.Run(0)
	if len(got) != 1 || got[0].From != 1 || got[0].To != 2 || got[0].Payload != "hi" {
		t.Fatalf("delivery wrong: %+v", got)
	}
	if got[0].Hops != 1 {
		t.Errorf("Hops = %d, want 1", got[0].Hops)
	}
	if net.Counters().Get("t:x") != 1 {
		t.Error("counter not incremented")
	}
}

func TestSendRejectsNonAdjacent(t *testing.T) {
	e, net := lineNet(t, 3)
	net.Register(1, HandlerFunc(func(Message) { t.Error("should not deliver") }))
	net.Register(3, HandlerFunc(func(Message) { t.Error("should not deliver") }))
	if net.Send(Message{From: 1, To: 3, Kind: "t:x"}) {
		t.Error("send across a non-link should fail")
	}
	e.Run(0)
}

func TestSendFromDownNode(t *testing.T) {
	e, net := lineNet(t, 2)
	net.Register(1, HandlerFunc(func(Message) {}))
	net.Register(2, HandlerFunc(func(Message) { t.Error("should not deliver") }))
	net.FailNode(1)
	if net.Send(Message{From: 1, To: 2, Kind: "t:x"}) {
		t.Error("down sender should fail")
	}
	net.RecoverNode(1)
	if !net.Send(Message{From: 1, To: 2, Kind: "t:x"}) {
		t.Error("recovered sender should succeed")
	}
	net.FailNode(2) // fails after transmission: in-flight frame dropped
	e.Run(0)
	if net.Counters().Get("drop:dest-down") != 1 {
		t.Errorf("dest-down drops = %d, want 1", net.Counters().Get("drop:dest-down"))
	}
}

func TestInFlightDropWhenDestFails(t *testing.T) {
	e, net := lineNet(t, 2, WithLatency(ConstantLatency(10)))
	delivered := false
	net.Register(1, HandlerFunc(func(Message) {}))
	net.Register(2, HandlerFunc(func(Message) { delivered = true }))
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.After(5, func() { net.FailNode(2) })
	e.Run(0)
	if delivered {
		t.Error("frame should be dropped when destination fails mid-flight")
	}
}

func TestInFlightDropWhenLinkRemoved(t *testing.T) {
	e, net := lineNet(t, 2, WithLatency(ConstantLatency(10)))
	delivered := false
	net.Register(1, HandlerFunc(func(Message) {}))
	net.Register(2, HandlerFunc(func(m Message) { delivered = true }))
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.After(5, func() { net.RemoveLink(1, 2) })
	e.Run(0)
	if delivered {
		t.Error("frame should be dropped when the link vanishes mid-flight")
	}
	net.AddLink(1, 2)
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.Run(0)
	if !delivered {
		t.Error("restored link should deliver")
	}
	// Attribution: a vanished link is "link-gone", not "dest-down".
	if net.Counters().Get("drop:link-gone") != 1 {
		t.Errorf("link-gone drops = %d, want 1", net.Counters().Get("drop:link-gone"))
	}
	if net.Counters().Get("drop:dest-down") != 0 {
		t.Errorf("dest-down drops = %d, want 0", net.Counters().Get("drop:dest-down"))
	}
}

func TestInFlightDropWhenLinkFlaps(t *testing.T) {
	// A frame in flight when its link is removed must stay dead even if the
	// link is re-added before the delivery instant: the removal is recorded
	// against the link, and frames sent before it are dropped as
	// "stale-link" rather than resurrected as zombies.
	e, net := lineNet(t, 2, WithLatency(ConstantLatency(10)))
	delivered := 0
	net.Register(1, HandlerFunc(func(Message) {}))
	net.Register(2, HandlerFunc(func(m Message) { delivered++ }))
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.After(5, func() { net.RemoveLink(1, 2) })
	e.After(6, func() { net.AddLink(1, 2) })
	e.Run(0)
	if delivered != 0 {
		t.Error("frame launched before a link flap must not survive it")
	}
	if net.Counters().Get("drop:stale-link") != 1 {
		t.Errorf("stale-link drops = %d, want 1", net.Counters().Get("drop:stale-link"))
	}
	// The flap is over; the new incarnation carries traffic normally.
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.Run(0)
	if delivered != 1 {
		t.Error("post-flap frame should deliver on the new link incarnation")
	}
}

// TestRemovalSparesOtherLinks: a link removal sends every frame in flight
// through the full link checks on delivery, and a frame whose own link is
// still there, or was never removed, passes them.
func TestRemovalSparesOtherLinks(t *testing.T) {
	e, net := lineNet(t, 3, WithLatency(ConstantLatency(10)))
	var from []ids.ID
	for _, v := range []ids.ID{1, 2, 3} {
		net.Register(v, HandlerFunc(func(m Message) { from = append(from, m.From) }))
	}
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	net.Send(Message{From: 3, To: 2, Kind: "t:x"})
	e.After(5, func() { net.RemoveLink(1, 2) })
	e.Run(0)
	if len(from) != 1 || from[0] != 3 || net.Counters().Get("drop:link-gone") != 1 {
		t.Fatalf("delivered from %v with %d link-gone drops, want only 3's frame and 1 drop",
			from, net.Counters().Get("drop:link-gone"))
	}
	net.AddLink(1, 2)
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.After(5, func() { net.RemoveLink(2, 3); net.AddLink(2, 3) })
	e.Run(0)
	if len(from) != 2 || from[1] != 1 || net.Counters().Get("drop:stale-link") != 0 {
		t.Errorf("a flap of 2–3 touched a frame on 1–2: delivered from %v, %d stale-link drops",
			from, net.Counters().Get("drop:stale-link"))
	}
}

// TestMobilityRemovalIsLinkGone: a link a Mobility process takes away under
// a frame in flight drops that frame as "link-gone", never "stale-link"; a
// link Mobility takes away and restores before the frame lands delivers it.
func TestMobilityRemovalIsLinkGone(t *testing.T) {
	e := sim.NewEngine(1)
	net := NewNetwork(e, graph.Ring([]ids.ID{1, 2, 3}), WithLatency(ConstantLatency(10)))
	delivered := 0
	for _, v := range []ids.ID{1, 2, 3} {
		net.Register(v, HandlerFunc(func(Message) { delivered++ }))
	}
	// In range 0.2 all three are linked; with 2 at 0.3, 1–2 is out of
	// range and 3 keeps the network connected.
	near, far := [2]float64{0.1, 0}, [2]float64{0.3, 0}
	m := NewMobility(net, map[ids.ID][2]float64{1: {0, 0}, 2: near, 3: {0.15, 0}}, 0.2)
	moveTo := func(p [2]float64) func() {
		return func() { m.pos[2] = p; m.recomputeLinks() }
	}
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.After(5, moveTo(far))
	e.Run(0)
	if delivered != 0 || net.Topology().HasEdge(1, 2) {
		t.Fatalf("mobility left link 1–2 = %v and %d deliveries, want gone and 0", net.Topology().HasEdge(1, 2), delivered)
	}
	if c := net.Counters(); c.Get("drop:link-gone") != 1 || c.Get("drop:stale-link") != 0 {
		t.Errorf("drops %v, want one link-gone and no stale-link", c.Snapshot())
	}
	moveTo(near)()
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.After(5, moveTo(far))
	e.After(6, moveTo(near))
	e.Run(0)
	if delivered != 1 {
		t.Errorf("a frame across a link mobility restored in flight: %d deliveries, want 1", delivered)
	}
}

// TestFailBeforeRegisterStaysDown: FailNode may name a node the network has
// not heard of; registering it later does not bring it up.
func TestFailBeforeRegisterStaysDown(t *testing.T) {
	e, net := lineNet(t, 2)
	net.Register(1, HandlerFunc(func(Message) {}))
	net.FailNode(2)
	delivered := 0
	net.Register(2, HandlerFunc(func(Message) { delivered++ }))
	if net.Up(2) || net.NeighborsOf(1) != nil || net.NeighborsOf(2) != nil {
		t.Fatalf("node failed before Register: up=%v, NeighborsOf(1)=%v", net.Up(2), net.NeighborsOf(1))
	}
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.Run(0)
	if delivered != 0 || net.Counters().Get("drop:dest-down") != 1 {
		t.Errorf("frame to a node failed before Register: %d deliveries, %d dest-down", delivered, net.Counters().Get("drop:dest-down"))
	}
	net.RecoverNode(2)
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.Run(0)
	if !net.Up(2) || delivered != 1 {
		t.Errorf("after RecoverNode: up=%v, %d deliveries, want up and 1", net.Up(2), delivered)
	}
}

// TestLateRegisterReceives: a node added to the topology and registered
// later (how ssr's join tests add a newcomer) receives what lands after its
// Register, including a frame sent before it.
func TestLateRegisterReceives(t *testing.T) {
	e, net := lineNet(t, 2, WithLatency(ConstantLatency(10)))
	net.Register(1, HandlerFunc(func(Message) {}))
	net.Topology().AddNode(9)
	net.AddLink(1, 9)
	net.Send(Message{From: 1, To: 9, Kind: "t:x", Payload: "early"})
	e.Run(0)
	if net.Counters().Get("drop:dest-down") != 1 {
		t.Fatalf("frame to an unregistered node: %d dest-down drops, want 1", net.Counters().Get("drop:dest-down"))
	}
	var got []any
	net.Send(Message{From: 1, To: 9, Kind: "t:x", Payload: "in flight"})
	e.After(5, func() { net.Register(9, HandlerFunc(func(m Message) { got = append(got, m.Payload) })) })
	e.Run(0)
	net.Send(Message{From: 1, To: 9, Kind: "t:x", Payload: "after"})
	e.Run(0)
	if len(got) != 2 || got[0] != "in flight" || got[1] != "after" {
		t.Errorf("late-registered node received %v, want [in flight after]", got)
	}
}

func TestLinkFlapScheduleDeterministic(t *testing.T) {
	// Same seed, same flap workload, twice: the counter ledgers must match
	// byte for byte. This pins the link-removal bookkeeping (map-backed) out
	// of the delivery schedule — a regression here would poison every
	// downstream reproducibility guarantee.
	run := func() string {
		e := sim.NewEngine(77)
		nodes := []ids.ID{1, 2, 3, 4}
		net := NewNetwork(e, graph.Ring(nodes), WithLoss(0.2), WithJitter(4))
		for _, v := range nodes {
			net.Register(v, HandlerFunc(func(Message) {}))
		}
		for i := 0; i < 40; i++ {
			i := i
			e.At(sim.Time(1+i), func() {
				net.Send(Message{From: 1, To: 2, Kind: "t:a", Payload: i})
				net.Send(Message{From: 3, To: 4, Kind: "t:b", Payload: i})
			})
			if i%8 == 3 {
				e.At(sim.Time(2+i), func() { net.RemoveLink(1, 2) })
				e.At(sim.Time(4+i), func() { net.AddLink(1, 2) })
			}
		}
		e.At(500, func() {})
		e.RunUntil(500, nil)
		return fmt.Sprintf("%v", net.Counters().Snapshot())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different ledgers:\n%s\nvs\n%s", a, b)
	}
}

func TestCorruptionDeliversGarbled(t *testing.T) {
	e, net := lineNet(t, 2, WithCorruption(1.0))
	var got []Message
	net.Register(1, HandlerFunc(func(Message) {}))
	net.Register(2, HandlerFunc(func(m Message) { got = append(got, m) }))
	net.Send(Message{From: 1, To: 2, Kind: "t:x", Payload: "precious"})
	e.Run(0)
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1 (corruption must not suppress delivery)", len(got))
	}
	if _, ok := got[0].Payload.(Garbled); !ok {
		t.Errorf("payload = %#v, want Garbled", got[0].Payload)
	}
	if net.Counters().Get("drop:corrupt") != 1 {
		t.Errorf("corrupt count = %d, want 1", net.Counters().Get("drop:corrupt"))
	}
}

func TestRuntimeFaultSetters(t *testing.T) {
	e, net := lineNet(t, 2)
	delivered := 0
	net.Register(1, HandlerFunc(func(Message) {}))
	net.Register(2, HandlerFunc(func(Message) { delivered++ }))
	net.SetLoss(1.0)
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.Run(0)
	if delivered != 0 {
		t.Fatal("SetLoss(1.0) must drop the frame")
	}
	net.SetLoss(0)
	net.SetCorruption(1.0)
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.Run(0)
	if delivered != 1 {
		t.Fatal("after SetLoss(0) the frame must arrive")
	}
	net.SetCorruption(0)
	net.SetJitter(4)
	start := e.Now()
	var arrival sim.Time
	net.Register(2, HandlerFunc(func(Message) { arrival = e.Now() }))
	net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	e.Run(0)
	if d := arrival - start; d < 1 || d > 5 {
		t.Errorf("jittered delivery after %d ticks, want within [1,5]", d)
	}
}

func TestLoss(t *testing.T) {
	e, net := lineNet(t, 2, WithLoss(1.0))
	net.Register(1, HandlerFunc(func(Message) {}))
	net.Register(2, HandlerFunc(func(Message) { t.Error("loss=1 must drop everything") }))
	for i := 0; i < 10; i++ {
		if !net.Send(Message{From: 1, To: 2, Kind: "t:x"}) {
			t.Error("lossy send still counts as transmitted")
		}
	}
	e.Run(0)
	if net.Counters().Get("t:x") != 10 {
		t.Errorf("transmissions = %d, want 10", net.Counters().Get("t:x"))
	}
}

func TestJitterStaysWithinBound(t *testing.T) {
	e, net := lineNet(t, 2, WithLatency(ConstantLatency(5)), WithJitter(3))
	var at []sim.Time
	net.Register(1, HandlerFunc(func(Message) {}))
	net.Register(2, HandlerFunc(func(Message) { at = append(at, e.Now()) }))
	for i := 0; i < 50; i++ {
		net.Send(Message{From: 1, To: 2, Kind: "t:x"})
	}
	e.Run(0)
	for _, a := range at {
		if a < 5 || a > 8 {
			t.Errorf("delivery at %d outside [5,8]", a)
		}
	}
	if len(at) != 50 {
		t.Errorf("deliveries = %d, want 50", len(at))
	}
}

func TestBroadcast(t *testing.T) {
	e, net := lineNet(t, 3)
	heard := map[ids.ID]int{}
	for _, v := range []ids.ID{1, 2, 3} {
		v := v
		net.Register(v, HandlerFunc(func(m Message) { heard[v]++ }))
	}
	if sent := net.Broadcast(2, "t:b", nil); sent != 2 {
		t.Errorf("Broadcast sent %d, want 2", sent)
	}
	e.Run(0)
	if heard[1] != 1 || heard[3] != 1 || heard[2] != 0 {
		t.Errorf("heard = %v", heard)
	}
}

func TestNeighborsOfAndUp(t *testing.T) {
	_, net := lineNet(t, 3)
	for _, v := range []ids.ID{1, 2, 3} {
		net.Register(v, HandlerFunc(func(Message) {}))
	}
	nbrs := net.NeighborsOf(2)
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 3 {
		t.Errorf("NeighborsOf(2) = %v", nbrs)
	}
	net.FailNode(3)
	nbrs = net.NeighborsOf(2)
	if len(nbrs) != 1 || nbrs[0] != 1 {
		t.Errorf("NeighborsOf(2) with 3 down = %v", nbrs)
	}
	if net.NeighborsOf(3) != nil {
		t.Error("down node has no neighbors")
	}
	if net.Up(3) || !net.Up(2) || net.Up(99) {
		t.Error("Up is wrong")
	}
	all := net.Nodes()
	if len(all) != 3 || all[0] != 1 {
		t.Errorf("Nodes = %v", all)
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Inc("a:x", 2)
	c.Inc("a:y", 3)
	c.Inc("drop:loss", 5)
	if c.Total() != 5 {
		t.Errorf("Total = %d, want 5 (drops excluded)", c.Total())
	}
	if got := c.TotalMatching(func(k string) bool { return k == "a:x" }); got != 2 {
		t.Errorf("TotalMatching = %d, want 2", got)
	}
	snap := c.Snapshot()
	if len(snap) != 3 || snap[0].Kind != "a:x" || snap[0].String() != "a:x=2" {
		t.Errorf("Snapshot = %v", snap)
	}
	c.Inc("drop:corrupt", 0) // registered, never counted
	if got := fmt.Sprint(c.Sent(), c.Drops()); got != "[a:x=2 a:y=3] [loss=5]" {
		t.Errorf("Sent, Drops = %s", got)
	}
	c.Reset()
	if c.Total() != 0 {
		t.Error("Reset failed")
	}
}

func TestBeaconerDiscoveryAndExpiry(t *testing.T) {
	e, net := lineNet(t, 3)
	beacons := map[ids.ID]*Beaconer{}
	var newNbr []ids.ID
	for _, v := range []ids.ID{1, 2, 3} {
		v := v
		b := NewBeaconer(net, v, 10)
		beacons[v] = b
		net.Register(v, HandlerFunc(func(m Message) {
			if m.Kind == BeaconKind {
				b.HandleHello(m)
			}
		}))
	}
	beacons[2].OnNewNeighbor = func(u ids.ID) { newNbr = append(newNbr, u) }
	for _, b := range beacons {
		b.Start()
	}
	e.RunUntil(100, nil)
	ids.SortAsc(newNbr)
	if len(newNbr) != 2 || newNbr[0] != 1 || newNbr[1] != 3 {
		t.Fatalf("OnNewNeighbor of 2 fired for %v, want [1 3]", newNbr)
	}
	// Fail node 3; after missLimit silent intervals node 2 expires it, so
	// 3's first hello after recovery makes it new again. Node 1 never
	// went silent and stays known.
	net.FailNode(3)
	e.RunUntil(300, nil)
	net.RecoverNode(3)
	e.RunUntil(400, nil)
	if len(newNbr) != 3 || newNbr[2] != 3 {
		t.Errorf("after 3's failure and recovery, OnNewNeighbor fired for %v, want [1 3 3]", newNbr)
	}
	for _, b := range beacons {
		b.Stop()
	}
}

func TestBeaconerStop(t *testing.T) {
	e, net := lineNet(t, 2)
	b := NewBeaconer(net, 1, 10)
	net.Register(1, HandlerFunc(func(Message) {}))
	count := 0
	net.Register(2, HandlerFunc(func(m Message) { count++ }))
	b.Start()
	e.RunUntil(35, nil)
	b.Stop()
	e.Run(0)
	if count != 3 {
		t.Errorf("beacons heard = %d, want 3 (at t=10,20,30)", count)
	}
}

func TestBeaconerIgnoresBadPayload(t *testing.T) {
	_, net := lineNet(t, 2)
	b := NewBeaconer(net, 1, 10)
	b.OnNewNeighbor = func(ids.ID) { t.Error("bad payload should be ignored") }
	b.HandleHello(Message{From: 2, Payload: "not a hello"})
}

func TestTopologyIsCloned(t *testing.T) {
	nodes := []ids.ID{1, 2}
	orig := graph.Line(nodes)
	net := NewNetwork(sim.NewEngine(1), orig)
	net.RemoveLink(1, 2)
	if !orig.HasEdge(1, 2) {
		t.Error("network must clone the topology")
	}
}

// TestInFlightAcrossSenderFailure: a frame that left its sender is the
// network's; the sender crashing and recovering while it is in flight
// neither drops it nor delivers it twice.
func TestInFlightAcrossSenderFailure(t *testing.T) {
	e, net := lineNet(t, 2, WithLatency(ConstantLatency(10)))
	var got []Message
	net.Register(1, HandlerFunc(func(Message) {}))
	net.Register(2, HandlerFunc(func(m Message) { got = append(got, m) }))
	net.Send(Message{From: 1, To: 2, Kind: "t:x", Payload: "before"})
	e.After(3, func() {
		net.FailNode(1)
		if net.Send(Message{From: 1, To: 2, Kind: "t:x", Payload: "while down"}) {
			t.Error("down sender should fail")
		}
	})
	e.After(6, func() { net.RecoverNode(1) })
	e.Run(0)
	if len(got) != 1 || got[0].Payload != "before" || e.Now() != 10 {
		t.Fatalf("delivered %+v by t=%d, want the one frame sent before the crash, at t=10", got, e.Now())
	}
}

// TestHandlerSendsDuringDelivery: frames are recycled, and the one being
// delivered goes back to the free list before its handler runs. A handler
// that sends from inside its delivery must still read the message it was
// given, and what it sends must arrive as sent.
func TestHandlerSendsDuringDelivery(t *testing.T) {
	e, net := lineNet(t, 3)
	var at1, at3 []Message
	net.Register(1, HandlerFunc(func(m Message) { at1 = append(at1, m) }))
	net.Register(3, HandlerFunc(func(m Message) { at3 = append(at3, m) }))
	net.Register(2, HandlerFunc(func(m Message) {
		for i := 0; i < 3; i++ {
			net.Send(Message{From: 2, To: 1, Kind: "t:reply", Payload: i})
		}
		// m is a copy: the sends above reused its frame and must not show.
		net.Send(Message{From: 2, To: 3, Kind: "t:fwd", Payload: m.Payload, Hops: m.Hops})
	}))
	net.Send(Message{From: 1, To: 2, Kind: "t:x", Payload: "ping"})
	e.Run(0)
	if len(at1) != 3 || len(at3) != 1 {
		t.Fatalf("node 1 got %d frames and node 3 got %d, want 3 and 1", len(at1), len(at3))
	}
	for i, m := range at1 {
		if m.From != 2 || m.To != 1 || m.Kind != "t:reply" || m.Payload != i || m.Hops != 1 {
			t.Errorf("reply %d arrived as %+v", i, m)
		}
	}
	if m := at3[0]; m.From != 2 || m.Kind != "t:fwd" || m.Payload != "ping" || m.Hops != 2 {
		t.Errorf("forwarded frame arrived as %+v", m)
	}
}

// TestSendDeliverAllocatesNothing: with no tracer, a frame through the raw
// network costs no allocation once the frame pool and the engine's bucket
// pool are warm.
func TestSendDeliverAllocatesNothing(t *testing.T) {
	one := gridNet(t)
	if allocs := testing.AllocsPerRun(1000, one); allocs != 0 {
		t.Errorf("raw Send + delivery allocates %v times per frame, want 0", allocs)
	}
}

// gridNet builds a 16x16 grid with a no-op handler on every node and
// returns benchmark/micro.go's phys.send_ns_frame loop body over it: one
// frame across a random link, its delivery event included.
func gridNet(tb testing.TB) (one func()) {
	tb.Helper()
	nodes := make([]ids.ID, 256)
	for i := range nodes {
		nodes[i] = ids.ID(i + 1)
	}
	g, err := graph.Grid(nodes, 16, 16)
	if err != nil {
		tb.Fatal(err)
	}
	e := sim.NewEngine(1)
	net := NewNetwork(e, g)
	for _, v := range nodes {
		net.Register(v, HandlerFunc(func(Message) {}))
	}
	edges := g.Edges()
	return func() {
		l := edges[e.Rand().Intn(len(edges))]
		net.Send(Message{From: l.U, To: l.V, Kind: "bench"})
		e.Run(0)
	}
}

// BenchmarkSendDeliver/raw times one frame through the raw network.
func BenchmarkSendDeliver(b *testing.B) {
	b.Run("raw", func(b *testing.B) {
		one := gridNet(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			one()
		}
	})
}
