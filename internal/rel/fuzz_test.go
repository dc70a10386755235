package rel

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
)

// byteFeed hands out fuzz bytes one at a time, wrapping to zero when the
// input runs dry so every prefix of the data is a complete program (the
// same idiom as ssr.FuzzFramePayloadDecoding).
type byteFeed struct {
	data []byte
	i    int
}

func (f *byteFeed) next() byte {
	if f.i >= len(f.data) {
		return 0
	}
	b := f.data[f.i]
	f.i++
	return b
}

func (f *byteFeed) next64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(f.next())
	}
	return v
}

// FuzzRelFrameDecoding feeds the sublayer's frame dispatcher adversarial
// payloads — forged ACKs for never-sent sequences, heartbeats, data frames
// with extreme/duplicate/overflowing sequence numbers, garbled frames, and
// raw non-sublayer traffic — interleaved with legitimate reliable sends.
// The endpoint must not panic, must keep its out-of-order buffer bounded,
// and must still deliver the honest traffic exactly once. Forgeries are
// *Frame and *Ack, the types the sublayer decodes: a value Frame would
// pass through as non-sublayer traffic and test nothing. Honest traffic
// runs 1→2, as do the forged ACKs, heartbeats, garbled frames and
// pass-through; forged data frames run 3→2, a link with no honest traffic,
// since a forged frame in the honest sequence space legitimately claims an
// honest sequence number and the honest frame is then a duplicate.
func FuzzRelFrameDecoding(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})                                // forged acks
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 9})              // an ACK whose Cum was never sent
	f.Add([]byte{1, 0, 1, 0, 255, 255, 255, 255})            // heartbeats + extreme seqs
	f.Add([]byte{2, 2, 2, 2, 2, 2})                          // duplicate data seqs
	f.Add([]byte{3, 255, 255, 255, 255, 255, 255, 255, 255}) // overflow seq
	f.Add([]byte{4, 5, 0, 4, 5, 0})                          // garbled + passthrough mix
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 5})           // a forged data frame at seq 0, then an honest send
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &byteFeed{data: data}
		raw := phys.NewNetwork(sim.NewEngine(17), graph.Line([]ids.ID{1, 2, 3}))
		n := New(raw, DefaultConfig())
		delivered := map[int]int{}
		n.Register(1, phys.HandlerFunc(func(m phys.Message) {}))
		n.Register(3, phys.HandlerFunc(func(m phys.Message) {}))
		n.Register(2, phys.HandlerFunc(func(m phys.Message) {
			if v, ok := m.Payload.(int); ok {
				delivered[v]++
			}
		}))
		eng := n.Engine()

		honest := 0
		for op := 0; op < 32 && feed.i < len(feed.data); op++ {
			var payload any
			from := ids.ID(1)
			switch feed.next() % 6 {
			case 0:
				payload = &Ack{Seq: feed.next64(), Cum: feed.next64()}
			case 1:
				payload = Heartbeat{Seq: feed.next64()}
			case 2:
				payload = &Frame{Seq: feed.next64(), Hops: int(int8(feed.next())), Inner: "garbage"}
				from = 3
			case 3:
				payload = phys.Garbled{}
			case 4:
				payload = "not-sublayer-traffic"
			case 5:
				// A legitimate reliable send woven between the forgeries.
				n.Send(phys.Message{From: 1, To: 2, Kind: "test:honest", Payload: honest})
				honest++
				eng.RunUntil(eng.Now()+4, nil)
				continue
			}
			// Forged frames arrive on the raw network, bypassing the sender
			// machinery — exactly what a corrupted or malicious frame does.
			raw.Send(phys.Message{From: from, To: 2, Kind: "test:forged", Payload: payload})
			eng.RunUntil(eng.Now()+4, nil)
		}
		eng.At(eng.Now()+4096, func() {})
		eng.RunUntil(eng.Now()+4096, nil)

		for i := 0; i < honest; i++ {
			if delivered[i] != 1 {
				t.Fatalf("honest frame %d delivered %d times amid forgeries, want exactly once", i, delivered[i])
			}
		}
		// The out-of-order buffer must stay bounded no matter what sequence
		// numbers the forgeries carried.
		bound := 4*n.Config().Window + 4
		for _, ep := range n.eps {
			for _, l := range ep.links {
				if len(l.ahead) > bound {
					t.Fatalf("node %v link %v: out-of-order buffer grew to %d (> %d)",
						ep.self, l.peer, len(l.ahead), bound)
				}
			}
		}
	})
}
