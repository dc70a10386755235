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
// packets, half each way, along a 4-node line over rel at 30 % frame loss.
// The courier boxes each packet once and every relay advances the same
// pointer, while rel may put each hop's frame on the air several times.
// Every packet must still arrive exactly once with its hop index at the
// route's end, each relay must forward each packet exactly once, and the
// full event stream must be a function of the seed.
func TestCourierPacketOwnershipUnderRetransmission(t *testing.T) {
	const packets = 200
	line := []ids.ID{1, 2, 3, 4}
	run := func() (uint64, Stats) {
		h := fnv.New64a()
		w := trace.NewJSONLWriter(h)
		tr := trace.WithLevel(w, trace.LevelMsg)
		eng := sim.NewEngine(5, sim.WithTracer(tr))
		net := New(phys.NewNetwork(eng, graph.Line(line), phys.WithLoss(0.3), phys.WithTracer(tr)), DefaultConfig())
		delivered := make([]int, packets)
		forwarded := make(map[[2]int]int) // (packet, relay) → forwards
		couriers := make(map[ids.ID]*phys.Courier)
		for _, v := range line {
			c := phys.NewCourier(net, v)
			c.OnDeliver = func(p phys.SRPacket) {
				i := p.Payload.(int)
				delivered[i]++
				if p.Hop != len(p.Route)-1 || p.Route.Dst() != v {
					t.Errorf("packet %d delivered at %v with hop %d of route %v", i, v, p.Hop, p.Route)
				}
			}
			c.OnForward = func(p phys.SRPacket) { forwarded[[2]int{p.Payload.(int), int(p.Route[p.Hop])}]++ }
			couriers[v] = c
			net.Register(v, phys.HandlerFunc(func(m phys.Message) {
				if !c.Handle(m) {
					t.Errorf("node %v got a frame that is not courier traffic: %+v", v, m)
				}
			}))
		}
		up, down := sroute.Route(line), sroute.Route(line).Reverse()
		for i := 0; i < packets; i++ {
			i := i
			eng.At(sim.Time(1+i), func() {
				if i%2 == 0 {
					couriers[1].Send(up, "t:pkt", i)
				} else {
					couriers[4].Send(down, "t:pkt", i)
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
			for _, relay := range []int{2, 3} {
				if n := forwarded[[2]int{i, relay}]; n != 1 {
					t.Fatalf("relay %d forwarded packet %d %d times, want once", relay, i, n)
				}
			}
		}
		return h.Sum64(), net.Stats()
	}
	first, st := run()
	if st.Retransmits == 0 || st.Duplicates == 0 {
		t.Fatalf("30%% loss must provoke retransmissions and duplicates: %+v", st)
	}
	if second, _ := run(); second != first {
		t.Fatalf("same seed, different event streams: %x vs %x", first, second)
	}
}
