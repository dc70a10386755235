package ssr

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
)

// twoNodeSetup builds a minimal live pair for handler-level poking.
func twoNodeSetup(t *testing.T) (*phys.Network, *Node, *Node) {
	t.Helper()
	topo := graph.Line([]ids.ID{1, 2})
	net := newNet(t, topo, 1)
	a := NewNode(net, 1, Config{})
	b := NewNode(net, 2, Config{})
	a.Start(0)
	b.Start(0)
	net.Engine().RunUntil(64, nil)
	return net, a, b
}

func route(t *testing.T, nodes ...ids.ID) sroute.Route {
	t.Helper()
	r, err := sroute.New(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMalformedPayloadsAreIgnored(t *testing.T) {
	net, _, b := twoNodeSetup(t)
	// Frames whose payload type does not match their kind must be dropped
	// without panicking or corrupting state.
	kinds := []string{KindNotify, KindAck, KindDiscover, KindDiscoverAck, KindData}
	for _, kind := range kinds {
		net.Send(phys.Message{From: 1, To: 2, Kind: kind,
			Payload: &phys.SRPacket{Route: route(t, 1, 2), Hop: 0, Kind: kind, Payload: "garbage"}})
	}
	net.Engine().RunUntil(net.Engine().Now()+64, nil)
	if b.Failed != 0 {
		t.Errorf("garbage frames should not count as routing failures: %d", b.Failed)
	}
	// The node remains functional.
	if b.Cache().Route(1) == nil {
		t.Error("node lost its physical-neighbor route")
	}
}

func TestAckForUnknownPairIgnored(t *testing.T) {
	net, a, _ := twoNodeSetup(t)
	net.Send(phys.Message{From: 2, To: 1, Kind: KindAck,
		Payload: &phys.SRPacket{Route: route(t, 2, 1), Aux: sroute.Route{77, 99}, Hop: 0, Kind: KindAck}})
	net.Engine().RunUntil(net.Engine().Now()+64, nil)
	if len(a.intros) != 0 {
		t.Error("bogus ack should not create introduction state")
	}
}

// TestAckWithMalformedAuxChangesNothing: an ack names its pair by the two
// IDs of its Aux, Low then High. One whose Aux is not exactly two IDs, even
// one that starts with a pending pair, changes no intros entry.
func TestAckWithMalformedAuxChangesNothing(t *testing.T) {
	net, _, n2, _ := unstartedTriple(t)
	key := pairKey{Low: 1, High: 3}
	n2.intros[key] = introOp{farther: 3}
	before := n2.intros[key]
	for _, aux := range []sroute.Route{nil, {}, {1}, {1, 3, 3}, {1, 3, 1}} {
		net.Send(phys.Message{From: 1, To: 2, Kind: KindAck,
			Payload: &phys.SRPacket{Route: route(t, 1, 2), Aux: aux, Hop: 0, Kind: KindAck}})
		net.Engine().RunUntil(net.Engine().Now()+4, nil)
		if len(n2.intros) != 1 || n2.intros[key] != before {
			t.Fatalf("ack with Aux %v changed intros to %v", aux, n2.intros)
		}
	}
	// The well-formed ack does move it: the cases above were ignored for
	// their Aux, not for anything else.
	net.Send(phys.Message{From: 1, To: 2, Kind: KindAck,
		Payload: &phys.SRPacket{Route: route(t, 1, 2), Aux: sroute.Route{1, 3}, Hop: 0, Kind: KindAck}})
	net.Engine().RunUntil(net.Engine().Now()+4, nil)
	if !n2.intros[key].ackLow {
		t.Fatalf("well-formed ack from 1 not recorded: %+v", n2.intros[key])
	}
}

func TestTeardownForUnknownNodeIgnored(t *testing.T) {
	net, a, _ := twoNodeSetup(t)
	before := a.Cache().Len()
	net.Send(phys.Message{From: 2, To: 1, Kind: KindTeardown,
		Payload: &phys.SRPacket{Route: route(t, 2, 1), Hop: 0, Kind: KindTeardown}})
	net.Engine().RunUntil(net.Engine().Now()+64, nil)
	// The teardown removes the (existing) route to node 2 — that is its
	// semantics — but must not do anything else destructive.
	if a.Cache().Len() > before {
		t.Error("teardown grew the cache?")
	}
}

func TestNotifyWithMismatchedJoinIgnored(t *testing.T) {
	net, a, b := twoNodeSetup(t)
	// Aux does not start at the notifier: composition must fail
	// gracefully, and no ack may go back to corrupt the pending table.
	acks := net.Counters().Get(KindAck)
	net.Send(phys.Message{From: 1, To: 2, Kind: KindNotify,
		Payload: &phys.SRPacket{Route: route(t, 1, 2), Aux: route(t, 9, 10), Hop: 0, Kind: KindNotify}})
	net.Engine().RunUntil(net.Engine().Now()+64, nil)
	if b.Cache().Route(10) != nil {
		t.Error("mismatched notify must not create a route")
	}
	if got := net.Counters().Get(KindAck) - acks; got != 0 {
		t.Errorf("mismatched notify was acknowledged %d times", got)
	}
	if len(a.intros) != 0 {
		t.Errorf("mismatched notify left introduction state at the notifier: %v", a.intros)
	}
}

// TestNotifyWithMalformedAuxTeachesNothing: a notification whose Aux is
// empty, one ID long, or does not start at the notifier composes no route
// and sends no ack; the well-formed one does both.
func TestNotifyWithMalformedAuxTeachesNothing(t *testing.T) {
	net, _, n2, n3 := unstartedTriple(t)
	notify := func(aux sroute.Route) {
		net.Send(phys.Message{From: 2, To: 3, Kind: KindNotify,
			Payload: &phys.SRPacket{Route: route(t, 2, 3), Aux: aux, Hop: 0, Kind: KindNotify}})
		net.Engine().RunUntil(net.Engine().Now()+4, nil)
	}
	for _, aux := range []sroute.Route{nil, {}, {2}, {1}, {1, 2}, {3, 2, 1}} {
		acks := net.Counters().Get(KindAck)
		notify(aux)
		if r := n3.Cache().Route(1); r != nil {
			t.Fatalf("notify with Aux %v taught 3 the route %v", aux, r)
		}
		if got := net.Counters().Get(KindAck) - acks; got != 0 {
			t.Fatalf("notify with Aux %v was acknowledged %d times", aux, got)
		}
	}
	acks := net.Counters().Get(KindAck)
	n2.intros[pairOf(1, 3)] = introOp{farther: 1}
	notify(route(t, 2, 1))
	if r := n3.Cache().Route(1); !r.Equal(route(t, 3, 2, 1)) {
		t.Fatalf("well-formed notify taught 3 the route %v, want 3→2→1", r)
	}
	if got := net.Counters().Get(KindAck) - acks; got != 1 {
		t.Fatalf("well-formed notify acknowledged %d times, want once", got)
	}
	if !n2.intros[pairOf(1, 3)].ackHigh {
		t.Fatalf("3's ack did not name the pair {1, 3}: %+v", n2.intros)
	}
}

func TestDiscoverAckFromForeignRouteIgnored(t *testing.T) {
	net, a, _ := twoNodeSetup(t)
	// RouteFromOrigin that does not start at the receiver must be ignored.
	bad := discoverAckPayload{RouteFromOrigin: route(t, 2, 1), Dir: ids.Left}
	net.Send(phys.Message{From: 2, To: 1, Kind: KindDiscoverAck,
		Payload: &phys.SRPacket{Route: route(t, 2, 1), Hop: 0, Kind: KindDiscoverAck, Payload: bad}})
	net.Engine().RunUntil(net.Engine().Now()+64, nil)
	if _, has := a.wrap.Partner(ids.Left); has {
		t.Error("foreign discover-ack must not set a wrap partner")
	}
}

func TestPendingPairExpires(t *testing.T) {
	// If acks never come back (link broken right after the notify), the
	// pending pair must expire so the introduction can be retried.
	topo := graph.Line([]ids.ID{10, 20, 30})
	net := newNet(t, topo, 3)
	c := NewCluster(net, Config{CacheMode: cache.Unbounded})
	eng := net.Engine()
	eng.RunUntil(40, nil)
	n := c.Nodes[10]
	// Force a pending entry with partners that will never ack. Sync
	// points: RunUntil leaves Now at the last fired event, so schedule a
	// no-op at each probe time.
	key := pairKey{Low: 555, High: 777}
	at := eng.Now()
	n.intros[key] = introOp{at: at, ackLow: true}
	if !n.pending(n.intros[key]) {
		t.Fatal("a fresh half-acked op must be pending")
	}
	end := at + pendingFor*tickInterval
	eng.After(end-1-at, func() {})
	eng.RunUntil(end-1, nil)
	if !n.pending(n.intros[key]) {
		t.Fatalf("t=%d: op expired before its window", eng.Now())
	}
	eng.After(1, func() {})
	eng.RunUntil(end, nil)
	if n.pending(n.intros[key]) {
		t.Errorf("t=%d: pending pair did not expire", eng.Now())
	}
	// The cluster's nodes tick on: prune forgets the record once the
	// re-introduction window has passed.
	eng.RunUntil(at+(reintroduceAfter+2*keepaliveEvery)*tickInterval, nil)
	if _, still := n.intros[key]; still {
		t.Error("expired introduction was never pruned")
	}
}

// unstartedTriple builds a 1–2–3 line whose nodes are registered but never
// started: no periodic ticks interfere, yet the handlers run, so the
// introduction machinery can be driven by hand with exact timing.
func unstartedTriple(t *testing.T) (*phys.Network, *Node, *Node, *Node) {
	t.Helper()
	topo := graph.Line([]ids.ID{1, 2, 3})
	net := newNet(t, topo, 7)
	n1 := NewNode(net, 1, Config{})
	n2 := NewNode(net, 2, Config{})
	n3 := NewNode(net, 3, Config{})
	n2.add(route(t, 2, 1), "seed")
	n2.add(route(t, 2, 3), "seed")
	return net, n1, n2, n3
}

func TestStaleExpiryTimerKeepsNewerPending(t *testing.T) {
	// Successive introductions of one pair share its record: an old op must
	// neither complete a newer one nor block it once the re-introduction
	// window has passed, and the newer op keeps its full pending window.
	net, _, n2, _ := unstartedTriple(t)
	key := pairKey{Low: 1, High: 3}
	eng := net.Engine()
	window := reintroduceAfter * tickInterval
	n2.introduce(1, 3, false) // t=0
	// Sync point: RunUntil leaves Now at the last fired event, so schedule
	// a no-op to pin the second introduction's start time.
	eng.After(32, func() {})
	eng.RunUntil(32, nil)
	if op := n2.intros[key]; n2.pending(op) || !op.ackLow || !op.ackHigh {
		t.Fatalf("first introduction should have completed via acks: %+v", op)
	}
	n2.introduce(1, 3, false) // inside the window: refused
	if op := n2.intros[key]; op.at != 0 {
		t.Fatalf("pair re-introduced at t=%d inside the window", op.at)
	}
	// Re-introduce once the window has passed; cut the links first so no
	// acks can complete the second op, keeping it pending.
	net.RemoveLink(2, 1)
	net.RemoveLink(2, 3)
	eng.After(window, func() {})
	eng.RunUntil(32+window, nil)
	n2.introduce(1, 3, false) // t=32+window
	op := n2.intros[key]
	if op.at != 32+window || op.ackLow || op.ackHigh || !n2.pending(op) {
		t.Fatalf("second introduction should be pending with no acks: %+v", op)
	}
	end := op.at + pendingFor*tickInterval
	eng.After(end-1-eng.Now(), func() {})
	eng.RunUntil(end-1, nil)
	if !n2.pending(n2.intros[key]) {
		t.Fatal("the newer op stopped pending before its own window")
	}
	eng.After(1, func() {})
	eng.RunUntil(end, nil)
	if n2.pending(n2.intros[key]) {
		t.Fatal("newer pending op never expired")
	}
}

func TestAckBeforeCounterpartNotifyNoLeak(t *testing.T) {
	// Under WithJitter one Notify can draw a much larger delay than the
	// other, so the introducer sees an Ack from one endpoint while the
	// other endpoint's Notify is still in flight. Reproduced exactly: the
	// link to node 3 is cut, so only node 1's Ack ever arrives. The op must
	// stay half-acked without completing, then expire without leaking.
	net, _, n2, _ := unstartedTriple(t)
	key := pairKey{Low: 1, High: 3}
	eng := net.Engine()
	net.RemoveLink(2, 3)
	n2.introduce(1, 3, false)
	eng.RunUntil(32, nil)
	op, ok := n2.intros[key]
	if !ok || !n2.pending(op) {
		t.Fatal("half-acked op must stay pending")
	}
	if !op.ackLow || op.ackHigh {
		t.Fatalf("ack state = low %v high %v, want low-only", op.ackLow, op.ackHigh)
	}
	expired := pendingFor * tickInterval
	eng.After(expired-eng.Now(), func() {}) // sync point at the window's end
	eng.RunUntil(expired, nil)
	if n2.pending(n2.intros[key]) {
		t.Error("half-acked op pending past its window")
	}
	window := reintroduceAfter * tickInterval
	eng.After(window-eng.Now(), func() {})
	eng.RunUntil(window, nil)
	n2.prune(eng.Now())
	if len(n2.intros) != 0 {
		t.Errorf("half-acked op leaked past the re-introduction window: %v", n2.intros)
	}
}

func TestDuplicateTeardownTolerated(t *testing.T) {
	// A retransmitted or jitter-duplicated Teardown must be idempotent:
	// route removed, peer tombstoned, no pending state and no panic.
	net, a, _ := twoNodeSetup(t)
	for i := 0; i < 2; i++ {
		net.Send(phys.Message{From: 2, To: 1, Kind: KindTeardown,
			Payload: &phys.SRPacket{Route: route(t, 2, 1), Hop: 0, Kind: KindTeardown}})
		net.Engine().RunUntil(net.Engine().Now()+4, nil)
	}
	if a.Cache().Route(2) != nil {
		t.Error("teardown must remove the route")
	}
	if !a.tombstoned(2) {
		t.Error("teardown must tombstone the peer")
	}
	if len(a.intros) != 0 {
		t.Error("duplicate teardown leaked introduction state")
	}
}

func TestJitterReorderingConvergesWithoutPendingLeak(t *testing.T) {
	// End-to-end: with per-frame jitter larger than the hop latency, acks
	// routinely overtake notifies and teardowns duplicate across paths.
	// The cluster must still reach global consistency and the pending
	// table must stay bounded.
	topo := graph.Line([]ids.ID{10, 20, 30, 40, 50, 60})
	net := phys.NewNetwork(sim.NewEngine(9), topo, phys.WithJitter(8))
	c := NewCluster(net, Config{CacheMode: cache.Unbounded})
	if at, ok := c.RunUntilConsistent(120000); !ok {
		t.Fatalf("did not converge under jitter by t=%d: %s", at, c.LineReport())
	}
	if p := c.PendingOps(); p > 3*len(c.Nodes) {
		t.Errorf("pending ops %d exceed bound %d", p, 3*len(c.Nodes))
	}
	if _, looped := c.AuditRoutes(); looped != 0 {
		t.Errorf("jitter reordering created %d looped routes", looped)
	}
	c.Stop()
}

func TestTombstoneBlocksRelearnThenExpires(t *testing.T) {
	net, a, _ := twoNodeSetup(t)
	// Tombstone node 9 and try to learn a route to it.
	a.tombstone(9, 4)
	topo := net.Topology()
	topo.AddNode(9)
	topo.AddEdge(1, 9)
	a.learn(route(t, 1, 9))
	if a.Cache().Route(9) != nil {
		t.Fatal("tombstoned destination must not be learned")
	}
	// After expiry the same route is accepted.
	net.Engine().RunUntil(net.Engine().Now()+5*16, nil)
	a.learn(route(t, 1, 9))
	if a.Cache().Route(9) == nil {
		t.Fatal("expired tombstone must not block learning")
	}
}

func TestStopIsIdempotentAndFinal(t *testing.T) {
	net, a, _ := twoNodeSetup(t)
	a.Stop()
	a.Stop()
	before := net.Counters().Total()
	net.Engine().RunUntil(net.Engine().Now()+2000, nil)
	// Node 2 still ticks; node 1 is silent. Allow node 2's traffic only.
	_ = before
	if !net.Up(1) {
		t.Error("Stop must not mark the node down at the physical layer")
	}
}

func TestKeepaliveAckRefreshesDetector(t *testing.T) {
	_, a, b := twoNodeSetup(t)
	eng := a.net.Engine()
	eng.RunUntil(eng.Now()+deadAfter*16*3, nil)
	// Both physical neighbors keep exchanging keepalives+acks, so neither
	// ever purges the other.
	if a.Cache().Route(2) == nil || b.Cache().Route(1) == nil {
		t.Error("live neighbors purged each other despite keepalive acks")
	}
}
