package rel

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newPair builds a two-node reliable network over one link with the given
// options, returning the rel network and a delivery log for node 2.
func newPair(t *testing.T, seed int64, cfg Config, opts ...phys.Option) (*Network, *[]phys.Message) {
	t.Helper()
	raw := phys.NewNetwork(sim.NewEngine(seed), graph.Line([]ids.ID{1, 2}), opts...)
	n := New(raw, cfg)
	var got []phys.Message
	n.Register(1, phys.HandlerFunc(func(m phys.Message) {}))
	n.Register(2, phys.HandlerFunc(func(m phys.Message) { got = append(got, m) }))
	return n, &got
}

// TestReliableDeliveryUnderLoss floods one lossy link and requires
// exactly-once delivery of every frame: retransmission recovers the losses,
// dedup suppresses the duplicates that lost ACKs provoke.
func TestReliableDeliveryUnderLoss(t *testing.T) {
	const frames = 200
	n, got := newPair(t, 11, DefaultConfig(), phys.WithLoss(0.3))
	eng := n.Engine()
	for i := 0; i < frames; i++ {
		i := i
		eng.At(sim.Time(1+i), func() {
			if !n.Send(phys.Message{From: 1, To: 2, Kind: "test:data", Payload: i}) {
				t.Errorf("send %d rejected", i)
			}
		})
	}
	eng.At(60000, func() {})
	eng.RunUntil(60000, nil)

	seen := make(map[int]int)
	for _, m := range *got {
		seen[m.Payload.(int)]++
	}
	for i := 0; i < frames; i++ {
		if seen[i] != 1 {
			t.Fatalf("frame %d delivered %d times, want exactly once", i, seen[i])
		}
	}
	st := n.Stats()
	if st.Retransmits == 0 {
		t.Fatal("30%% loss produced zero retransmissions")
	}
	if st.Duplicates == 0 {
		t.Fatal("lost ACKs produced zero receiver-side duplicates")
	}
	if n.Counters().Get("drop:duplicate") != st.Duplicates {
		t.Fatalf("duplicate accounting diverged: counter %d vs stats %d",
			n.Counters().Get("drop:duplicate"), st.Duplicates)
	}
}

// TestLosslessLinkNoOverhead checks the sublayer is quiet when nothing is
// lost: no retransmissions, no duplicates, RTT samples flowing.
func TestLosslessLinkNoOverhead(t *testing.T) {
	n, got := newPair(t, 3, DefaultConfig())
	eng := n.Engine()
	for i := 0; i < 50; i++ {
		i := i
		eng.At(sim.Time(1+2*i), func() {
			n.Send(phys.Message{From: 1, To: 2, Kind: "test:data", Payload: i})
		})
	}
	eng.At(2000, func() {})
	eng.RunUntil(2000, nil)
	if len(*got) != 50 {
		t.Fatalf("delivered %d frames, want 50", len(*got))
	}
	st := n.Stats()
	if st.Retransmits != 0 || st.Duplicates != 0 || st.Abandons != 0 {
		t.Fatalf("lossless link produced overhead: %+v", st)
	}
	if st.RTTSamples == 0 {
		t.Fatal("no RTT samples on a healthy link")
	}
}

// TestWindowQueueing fills the in-flight window and checks queued frames
// drain in order once ACKs free slots.
func TestWindowQueueing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 4
	n, got := newPair(t, 5, cfg)
	eng := n.Engine()
	eng.At(1, func() {
		for i := 0; i < 40; i++ {
			n.Send(phys.Message{From: 1, To: 2, Kind: "test:data", Payload: i})
		}
	})
	eng.At(4000, func() {})
	eng.RunUntil(4000, nil)
	if len(*got) != 40 {
		t.Fatalf("delivered %d frames, want 40", len(*got))
	}
	for i, m := range *got {
		if m.Payload.(int) != i {
			t.Fatalf("same-burst frames reordered: position %d got %d", i, m.Payload.(int))
		}
	}
}

// TestAbandonAfterMaxRetries removes the link permanently; every in-flight
// frame must eventually be abandoned, not retried forever.
func TestAbandonAfterMaxRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetries = 3
	n, got := newPair(t, 7, cfg)
	raw := n.Network
	eng := n.Engine()
	eng.At(1, func() {
		for i := 0; i < 5; i++ {
			n.Send(phys.Message{From: 1, To: 2, Kind: "test:data", Payload: i})
		}
	})
	// Tear the link down before anything can arrive (latency is 1 tick, so
	// removal at the same tick as the sends races — remove at once via the
	// engine so in-flight frames die as stale).
	eng.At(1, func() { raw.RemoveLink(1, 2) })
	eng.At(50000, func() {})
	eng.RunUntil(50000, nil)
	if len(*got) != 0 {
		t.Fatalf("delivered %d frames across a removed link", len(*got))
	}
	st := n.Stats()
	if st.Abandons != 5 {
		t.Fatalf("abandoned %d frames, want all 5", st.Abandons)
	}
	if n.Counters().Get("drop:rel-abandon") != 5 {
		t.Fatalf("drop:rel-abandon = %d, want 5", n.Counters().Get("drop:rel-abandon"))
	}
	if st.Retransmits != 5*3 {
		t.Fatalf("retransmitted %d times, want MaxRetries (3) per frame", st.Retransmits)
	}
}

// TestLeaseDownUp crashes a neighbor and checks the failure detector's
// verdict sequence at the survivor: down after the lease expires, up when
// the recovered neighbor's heartbeats resume.
func TestLeaseDownUp(t *testing.T) {
	cfg := DefaultConfig()
	n, _ := newPair(t, 13, cfg)
	raw := n.Network
	eng := n.Engine()
	type verdict struct {
		peer ids.ID
		up   bool
		at   sim.Time
	}
	var verdicts []verdict
	n.SubscribeLeases(1, func(peer ids.ID, up bool) {
		verdicts = append(verdicts, verdict{peer, up, eng.Now()})
	})

	// Let heartbeats establish the lease, then crash node 2.
	crashAt := 4 * cfg.HeartbeatEvery
	eng.At(crashAt, func() { raw.FailNode(2) })
	recoverAt := crashAt + 4*cfg.LeaseDuration
	eng.At(recoverAt, func() { raw.RecoverNode(2) })
	end := recoverAt + 4*cfg.LeaseDuration
	eng.At(end, func() {})
	eng.RunUntil(end, nil)

	if len(verdicts) != 2 {
		t.Fatalf("got %d verdicts %v, want down then up", len(verdicts), verdicts)
	}
	if verdicts[0].up || verdicts[0].peer != 2 {
		t.Fatalf("first verdict %v, want peer 2 down", verdicts[0])
	}
	if verdicts[0].at < crashAt+cfg.LeaseDuration {
		t.Fatalf("down verdict at %d, before the lease (crash %d + lease %d) could expire",
			verdicts[0].at, crashAt, cfg.LeaseDuration)
	}
	if !verdicts[1].up || verdicts[1].peer != 2 {
		t.Fatalf("second verdict %v, want peer 2 up", verdicts[1])
	}
	if verdicts[1].at < recoverAt {
		t.Fatalf("up verdict at %d, before recovery at %d", verdicts[1].at, recoverAt)
	}
	st := n.Stats()
	if st.LeaseDowns != 1 || st.LeaseUps != 1 {
		t.Fatalf("lease stats %+v, want exactly one down and one up", st)
	}
}

// TestDeterministicSchedule runs the same lossy workload twice from the same
// seed and requires identical counter ledgers and stats — the reproducibility
// contract everything downstream (chaos, benches) relies on.
func TestDeterministicSchedule(t *testing.T) {
	run := func() string {
		raw := phys.NewNetwork(sim.NewEngine(21), graph.Line([]ids.ID{1, 2, 3}), phys.WithLoss(0.25), phys.WithJitter(3))
		n := New(raw, DefaultConfig())
		for _, v := range []ids.ID{1, 2, 3} {
			n.Register(v, phys.HandlerFunc(func(m phys.Message) {}))
		}
		eng := n.Engine()
		for i := 0; i < 60; i++ {
			i := i
			eng.At(sim.Time(1+i), func() {
				n.Send(phys.Message{From: 1, To: 2, Kind: "test:a", Payload: i})
				n.Send(phys.Message{From: 2, To: 3, Kind: "test:b", Payload: i})
				n.Send(phys.Message{From: 3, To: 2, Kind: "test:c", Payload: i})
			})
		}
		eng.At(20000, func() {})
		eng.RunUntil(20000, nil)
		return fmt.Sprintf("%v|%+v", n.Counters().Snapshot(), n.Stats())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different ledgers:\n%s\n%s", a, b)
	}
}

// TestRelRaceHammer runs many independent reliable simulations concurrently
// under -race: the sublayer shares nothing across engines, so the sharded
// executor may run one per worker.
func TestRelRaceHammer(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			raw := phys.NewNetwork(sim.NewEngine(seed), graph.Line([]ids.ID{1, 2, 3, 4}), phys.WithLoss(0.2))
			n := New(raw, DefaultConfig())
			delivered := 0
			for _, v := range []ids.ID{1, 2, 3, 4} {
				n.Register(v, phys.HandlerFunc(func(m phys.Message) { delivered++ }))
			}
			eng := n.Engine()
			for i := 0; i < 50; i++ {
				i := i
				eng.At(sim.Time(1+i), func() {
					n.Send(phys.Message{From: 1, To: 2, Kind: "test:x", Payload: i})
					n.Send(phys.Message{From: 3, To: 4, Kind: "test:y", Payload: i})
				})
			}
			eng.At(30000, func() {})
			eng.RunUntil(30000, nil)
			if delivered != 100 {
				t.Errorf("seed %d: delivered %d, want 100", seed, delivered)
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

// TestCumulativeAckRetirement drives one link's sender side by hand: a
// cumulative mark retires every in-flight frame at or below it and nothing
// above it, and a forged mark beyond the last transmitted frame does not
// keep later frames from being retired.
func TestCumulativeAckRetirement(t *testing.T) {
	n, _ := newPair(t, 1, DefaultConfig())
	for i := 0; i < 5; i++ {
		n.Send(phys.Message{From: 1, To: 2, Kind: "test:data", Payload: i})
	}
	l := n.eps[1].link(2)
	inflight := func() []uint64 {
		var seqs []uint64
		for i, p := range l.window {
			if p != nil {
				seqs = append(seqs, l.lowest()+uint64(i))
			}
		}
		if len(seqs) != l.live || len(l.window) > 0 && l.window[0] == nil {
			t.Fatalf("window %v: %d live, want %d and a live head", l.window, len(seqs), l.live)
		}
		return seqs
	}
	l.recvAck(&Ack{Seq: 99, Cum: 3})
	if got := inflight(); !slices.Equal(got, []uint64{4, 5}) {
		t.Fatalf("after Cum=3 in flight = %v, want [4 5]", got)
	}
	l.recvAck(&Ack{Seq: 99, Cum: 1})
	if got := inflight(); !slices.Equal(got, []uint64{4, 5}) {
		t.Fatalf("after a stale Cum=1 in flight = %v, want [4 5]", got)
	}
	l.recvAck(&Ack{Seq: 4, Cum: ^uint64(0)})
	if got := inflight(); len(got) != 0 {
		t.Fatalf("after a forged Cum in flight = %v, want none", got)
	}
	n.Send(phys.Message{From: 1, To: 2, Kind: "test:data", Payload: 5})
	l.recvAck(&Ack{Seq: 99, Cum: 6})
	if got := inflight(); len(got) != 0 {
		t.Fatalf("frame 6, sent after the forged Cum, still in flight: %v", got)
	}
}

// gridNet builds a reliable 16x16 grid with a no-op handler on every node
// and heartbeats out of the way, and returns its links and benchmark/
// micro.go's rel.send_ack_ns_frame loop body: one frame across a link
// without loss — the data frame, its ACK and the retransmission timer that
// finds it retired.
func gridNet(tb testing.TB) (edges []graph.Edge, one func(graph.Edge)) {
	tb.Helper()
	nodes := make([]ids.ID, 256)
	for i := range nodes {
		nodes[i] = ids.ID(i + 1)
	}
	g, err := graph.Grid(nodes, 16, 16)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HeartbeatEvery = 1 << 40
	n := New(phys.NewNetwork(sim.NewEngine(1), g), cfg)
	for _, v := range nodes {
		n.Register(v, phys.HandlerFunc(func(phys.Message) {}))
	}
	e := n.Engine()
	return g.Edges(), func(l graph.Edge) {
		n.Send(phys.Message{From: l.U, To: l.V, Kind: "bench"})
		e.RunUntil(e.Now()+4, nil)
	}
}

// TestSendAckAllocations pins what a reliable frame costs the allocator on
// a lossless link once the free lists are warm: nothing. The *Frame and
// *Ack wrappers come from the network's free lists and go back when the
// receiving endpoint has handled them, the pending record and its timer
// are recycled, and the raw frames under them and their delivery events
// cost nothing.
func TestSendAckAllocations(t *testing.T) {
	edges, one := gridNet(t)
	for _, l := range edges {
		one(l) // first use of a link allocates its state
	}
	rng := rand.New(rand.NewSource(1))
	if allocs := testing.AllocsPerRun(1000, func() { one(edges[rng.Intn(len(edges))]) }); allocs != 0 {
		t.Errorf("reliable send + ACK allocates %v times per frame, want 0", allocs)
	}
}

// TestHandBuiltWrappersStayOffTheFreeLists: a *Frame or *Ack that a test or
// a fuzzer builds and puts on the raw network is handled like any other,
// but never goes on the free lists, so a later send cannot write over it.
// The network's own wrappers do go back.
func TestHandBuiltWrappersStayOffTheFreeLists(t *testing.T) {
	n, got := newPair(t, 1, DefaultConfig())
	eng := n.Engine()
	f := &Frame{Seq: 1, Inner: "forged"}
	a := &Ack{Seq: 7, Cum: 0}
	n.Network.Send(phys.Message{From: 1, To: 2, Kind: "test:forged", Payload: f})
	n.Network.Send(phys.Message{From: 2, To: 1, Kind: "test:forged", Payload: a})
	eng.RunUntil(eng.Now()+4, nil)
	if len(*got) != 1 || (*got)[0].Payload != "forged" {
		t.Fatalf("hand-built frame delivered as %v, want one \"forged\"", *got)
	}
	for i := 0; i < 3; i++ {
		n.Send(phys.Message{From: 1, To: 2, Kind: "test:data", Payload: i})
		eng.RunUntil(eng.Now()+4, nil)
	}
	frames, acks := 0, 0
	for w := n.frames; w != nil; w = w.next {
		if w == f {
			t.Fatal("hand-built *Frame went on the free list")
		}
		frames++
	}
	for w := n.acks; w != nil; w = w.next {
		if w == a {
			t.Fatal("hand-built *Ack went on the free list")
		}
		acks++
	}
	if frames == 0 || acks == 0 {
		t.Errorf("free lists hold %d frames and %d acks after three sends, want both > 0", frames, acks)
	}
	if f.Seq != 1 || f.Inner != "forged" || a.Seq != 7 {
		t.Errorf("hand-built wrappers written over: %+v %+v", *f, *a)
	}
}

// TestRecordReuseUnderAbandons: at 40 % loss with one retry, frames are
// abandoned as well as ACKed, so records go back to the free list from
// both branches of their timer. Reuse must never arm a pending timer (Arm
// panics) and must not leak into the run: two same-seed runs give equal
// Stats and an equal message-level trace, and a few records serve every
// send.
func TestRecordReuseUnderAbandons(t *testing.T) {
	run := func() (Stats, []any, int) {
		var log []any
		nodes := []ids.ID{1, 2, 3, 4}
		raw := phys.NewNetwork(sim.NewEngine(29), graph.Ring(nodes),
			phys.WithLoss(0.4), phys.WithJitter(2), phys.WithTracer(eventLog{&log}))
		cfg := DefaultConfig()
		cfg.MaxRetries = 1
		n := New(raw, cfg)
		for _, v := range nodes {
			n.Register(v, phys.HandlerFunc(func(m phys.Message) {
				log = append(log, m)
			}))
		}
		eng := n.Engine()
		for i := 0; i < 300; i++ {
			i := i
			eng.At(sim.Time(1+i), func() { n.Broadcast(nodes[i%len(nodes)], "test:x", i) })
		}
		eng.At(5000, func() {})
		eng.RunUntil(5000, nil)
		records := 0
		for p := n.free; p != nil; p = p.next {
			records++
		}
		return n.Stats(), log, records
	}
	st, log, records := run()
	if st.Abandons == 0 || st.Retransmits == 0 {
		t.Fatalf("no abandons or no retransmissions at 40%% loss: %+v", st)
	}
	if records == 0 || int64(records) > st.Sent/4 {
		t.Errorf("%d records recycled for %d sends", records, st.Sent)
	}
	st2, log2, _ := run()
	if st != st2 || !slices.Equal(log, log2) {
		t.Errorf("same seed, different runs: %+v vs %+v, traces equal: %v", st, st2, slices.Equal(log, log2))
	}
}

// TestTraceCountsTheFramesCountersCount: at 30 % loss, an Analysis on the
// network's tracer counts as sent every frame phys.Counters counts, lost
// frames included, and every drop the counters count, by reason, on the
// raw network and under the reliable sublayer (whose duplicates are drops
// too).
func TestTraceCountsTheFramesCountersCount(t *testing.T) {
	nodes := []ids.ID{1, 2, 3, 4, 5}
	for _, reliable := range []bool{false, true} {
		a := trace.NewAnalysis()
		raw := phys.NewNetwork(sim.NewEngine(3), graph.Line(nodes), phys.WithLoss(0.3), phys.WithTracer(a))
		var net phys.Transport = raw
		if reliable {
			net = New(raw, DefaultConfig())
		}
		for _, v := range nodes {
			net.Register(v, phys.HandlerFunc(func(phys.Message) {}))
		}
		eng := raw.Engine()
		for i := 0; i < 500; i++ {
			i := i
			eng.At(sim.Time(1+i), func() { net.Broadcast(nodes[i%len(nodes)], "test:x", i) })
		}
		eng.At(1, func() { net.Send(phys.Message{From: 1, To: 3, Kind: "test:x"}) }) // no link
		eng.RunUntil(20000, nil)

		c := raw.Counters()
		if c.Get("drop:loss") == 0 {
			t.Fatalf("reliable=%v: 30%% loss lost no frame", reliable)
		}
		if a.TotalSent() != c.Total() {
			t.Errorf("reliable=%v: trace counts %d frames sent, counters %d", reliable, a.TotalSent(), c.Total())
		}
		if reliable && c.Get("drop:duplicate") == 0 {
			t.Fatalf("30%% loss provoked no duplicate")
		}
		var drops []trace.KindTotal
		for _, kc := range c.Drops() {
			drops = append(drops, trace.KindTotal{Kind: kc.Kind, Count: kc.Count})
		}
		if got := a.DropTotals(); !slices.Equal(got, drops) {
			t.Errorf("reliable=%v: trace drop totals %v, counters %v", reliable, got, drops)
		}
	}
}

// BenchmarkSendDeliver/rel times one frame through the reliable sublayer.
func BenchmarkSendDeliver(b *testing.B) {
	b.Run("rel", func(b *testing.B) {
		edges, one := gridNet(b)
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			one(edges[rng.Intn(len(edges))])
		}
	})
}
