package rel

import (
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
	"repro/internal/trace"
)

// TestCourierPacketOwnershipUnderRetransmission routes 200 source-routed
// packets along a 4-node line over rel at 30 % frame loss, in waves of 40
// over five routes each way. The courier takes each packet from the
// network's free list, every relay advances the same pointer, and the
// destination puts it back, while rel may put each hop's frame on the air
// several times: a wave reuses the packets of the waves before it while
// their stale retransmissions are still on the air. Every packet must
// still arrive exactly once, with its own payload and route and its hop
// index at the route's end, each relay must forward each packet exactly
// once, and the full event stream must be a function of the seed.
func TestCourierPacketOwnershipUnderRetransmission(t *testing.T) {
	const packets, wave = 200, 40
	line := []ids.ID{1, 2, 3, 4}
	routes := []sroute.Route{{1, 2, 3, 4}, {4, 3, 2, 1}, {1, 2, 3}, {4, 3, 2}, {2, 3, 4}, {3, 2, 1}, {1, 2}, {4, 3}, {2, 3}, {3, 2}}
	routeOf := func(i int) sroute.Route { return routes[i%len(routes)] }
	run := func() (uint64, Stats, int) {
		h := fnv.New64a()
		w := trace.NewJSONLWriter(h)
		tr := trace.WithLevel(w, trace.LevelMsg)
		eng := sim.NewEngine(5, sim.WithTracer(tr))
		net := New(phys.NewNetwork(eng, graph.Line(line), phys.WithLoss(0.3), phys.WithTracer(tr)), DefaultConfig())
		delivered := make([]int, packets)
		forwarded := make(map[[2]int]int) // (packet, relay) → forwards
		boxes := make(map[*phys.SRPacket]bool)
		couriers := make(map[ids.ID]*phys.Courier)
		for _, v := range line {
			c := phys.NewCourier(net, v)
			c.OnDeliver = func(p phys.SRPacket) {
				i := p.Payload.(int)
				delivered[i]++
				if p.Hop != len(p.Route)-1 || p.Route.Dst() != v || !p.Route.Equal(routeOf(i)) {
					t.Errorf("packet %d delivered at %v with hop %d of route %v, sent along %v", i, v, p.Hop, p.Route, routeOf(i))
				}
			}
			c.OnForward = func(p phys.SRPacket) { forwarded[[2]int{p.Payload.(int), int(p.Route[p.Hop])}]++ }
			couriers[v] = c
			net.Register(v, phys.HandlerFunc(func(m phys.Message) {
				if p, ok := m.Payload.(*phys.SRPacket); ok {
					boxes[p] = true
				}
				if !c.Handle(m) {
					t.Errorf("node %v got a frame that is not courier traffic: %+v", v, m)
				}
			}))
		}
		for i := 0; i < packets; i++ {
			i := i
			eng.At(sim.Time(1+(i/wave)*24+i%wave/8), func() {
				r := routeOf(i)
				if !couriers[r.Src()].Send(r, "t:pkt", i) {
					t.Errorf("packet %d not sent", i)
				}
			})
		}
		eng.RunUntil(20000, nil)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < packets; i++ {
			if delivered[i] != 1 {
				t.Fatalf("packet %d delivered %d times, want exactly once", i, delivered[i])
			}
			r := routeOf(i)
			for _, relay := range r[1 : len(r)-1] {
				if n := forwarded[[2]int{i, int(relay)}]; n != 1 {
					t.Fatalf("relay %d forwarded packet %d %d times, want once", relay, i, n)
				}
			}
		}
		return h.Sum64(), net.Stats(), len(boxes)
	}
	first, st, boxes := run()
	if st.Retransmits == 0 || st.Duplicates == 0 {
		t.Fatalf("30%% loss must provoke retransmissions and duplicates: %+v", st)
	}
	if boxes >= packets-wave {
		t.Fatalf("%d packets travelled in %d boxes: later waves must reuse earlier packets", packets, boxes)
	}
	if second, _, _ := run(); second != first {
		t.Fatalf("same seed, different event streams: %x vs %x", first, second)
	}
	t.Logf("%d packets in %d boxes; %+v", packets, boxes, st)
}
