package ssr

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
)

// byteFeed hands out fuzz bytes one at a time, wrapping to zero when the
// input runs dry so every prefix of the data is a complete program.
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

// fuzzRoute builds a raw (unvalidated) source route from fuzz bytes: hops
// drawn from the live nodes plus unknown and extreme identifiers, with
// loops and too-short routes all possible — exactly the malformed shapes a
// corrupted or forged frame could carry.
func fuzzRoute(f *byteFeed) sroute.Route {
	pool := []ids.ID{1, 2, 3, 99, 1 << 40, 0}
	n := int(f.next()) % 6
	r := make(sroute.Route, 0, n)
	for k := 0; k < n; k++ {
		r = append(r, pool[int(f.next())%len(pool)])
	}
	return r
}

// FuzzFramePayloadDecoding replays a fuzz-derived sequence of adversarial
// frames — wrong outer types, garbled payloads, source-routed packets with
// looped/foreign/too-short routes and out-of-range hop indices, typed
// payloads on mismatched kinds — against a live three-node cluster. The
// seed corpus mirrors the malformed-frame robustness tests. The cluster
// must neither panic nor corrupt its caches into looped routes.
func FuzzFramePayloadDecoding(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2})                               // garbage string on notify
	f.Add([]byte{1, 1, 2, 2, 3, 3})                         // Garbled frames
	f.Add([]byte{2, 4, 0, 1, 2, 3, 4, 5, 6, 7})             // SRPacket, garbage inner
	f.Add([]byte{3, 2, 5, 1, 0, 2, 2, 9, 9, 0, 1, 2, 3, 4}) // typed payloads, bad routes
	f.Add([]byte{5, 0, 4, 200, 3, 0, 2, 255, 1, 128})       // extreme hop indices
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &byteFeed{data: data}
		topo := graph.Line([]ids.ID{1, 2, 3})
		net := phys.NewNetwork(sim.NewEngine(7), topo)
		c := NewCluster(net, Config{})
		eng := net.Engine()
		eng.At(64, func() {})
		eng.RunUntil(64, nil)

		kinds := []string{KindNotify, KindAck, KindTeardown, KindDiscover,
			KindDiscoverAck, KindData, KindKeepalive, KindKeepAck}
		edges := [][2]ids.ID{{1, 2}, {2, 1}, {2, 3}, {3, 2}}
		for op := 0; op < 24 && feed.i < len(feed.data); op++ {
			kind := kinds[int(feed.next())%len(kinds)]
			e := edges[int(feed.next())%len(edges)]
			var payload any
			switch feed.next() % 6 {
			case 0:
				payload = "garbage"
			case 1:
				payload = phys.Garbled{}
			case 2:
				payload = &phys.SRPacket{Route: fuzzRoute(feed),
					Hop: int(int8(feed.next())), Kind: kind, Payload: "garbage"}
			case 3:
				payload = &phys.SRPacket{Route: fuzzRoute(feed), Hop: int(int8(feed.next())),
					Kind: kind, Payload: notifyPayload{OtherRoute: fuzzRoute(feed),
						Pair: pairKey{Low: ids.ID(feed.next()), High: ids.ID(feed.next())}}}
			case 4:
				var inner any
				switch feed.next() % 4 {
				case 0:
					inner = ackPayload{Pair: pairKey{Low: ids.ID(feed.next()), High: ids.ID(feed.next())}}
				case 1:
					inner = discoverPayload{Origin: ids.ID(feed.next()),
						Dir: ids.Dir(feed.next() % 2), RouteFromOrigin: fuzzRoute(feed)}
				case 2:
					inner = discoverAckPayload{RouteFromOrigin: fuzzRoute(feed),
						Dir: ids.Dir(feed.next() % 2)}
				case 3:
					inner = dataPayload{Origin: ids.ID(feed.next()), Dst: ids.ID(feed.next()),
						Hops: int(int8(feed.next()))}
				}
				payload = &phys.SRPacket{Route: fuzzRoute(feed),
					Hop: int(int8(feed.next())), Kind: kind, Payload: inner}
			case 5:
				payload = &phys.SRPacket{Route: sroute.Route{e[0], e[1]}, Hop: 0,
					Kind: kind, Payload: phys.Garbled{}}
			}
			net.Send(phys.Message{From: e[0], To: e[1], Kind: kind, Payload: payload})
			eng.RunUntil(eng.Now()+8, nil)
		}
		eng.At(eng.Now()+128, func() {})
		eng.RunUntil(eng.Now()+128, nil)

		if _, looped := c.AuditRoutes(); looped != 0 {
			t.Fatalf("adversarial frames corrupted %d cached routes into loops", looped)
		}
		c.Stop()
	})
}
