package main

import (
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/rel"
	"repro/internal/sim"
	"repro/internal/sroute"
	"repro/internal/trace"
)

// perOp times fn in growing batches until one batch lasts c.micro and
// returns that batch's nanoseconds per call.
func (c *ctx) perOp(fn func()) float64 {
	for n := 1; ; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		if d >= c.micro {
			return float64(d.Nanoseconds()) / float64(n)
		}
		if d < c.micro/16 {
			n *= 8
		} else {
			n = int(float64(n)*float64(c.micro)/float64(d)*1.2) + 1
		}
	}
}

// queueMicros times the event queue at a steady depth: one At at a random
// future tick plus one Step, with a no-op closure.
func queueMicros(c *ctx, v values) {
	noop := func() {}
	for _, d := range []struct {
		name  string
		depth int
	}{{"sim.queue.ns_op.d1k", 1000}, {"sim.queue.ns_op.d100k", 100000}} {
		eng := sim.NewEngine(1)
		for i := 0; i < d.depth; i++ {
			eng.At(sim.Time(eng.Rand().Intn(d.depth)), noop)
		}
		v[d.name] = c.perOp(func() {
			eng.At(eng.Now()+sim.Time(eng.Rand().Intn(d.depth)), noop)
			eng.Step()
		})
	}
	// The timer pattern of rel: schedule, cancel before it fires, and let
	// the engine pop the dead event.
	eng := sim.NewEngine(1)
	for i := 0; i < 1000; i++ {
		eng.At(sim.Time(eng.Rand().Intn(1000)), noop)
	}
	v["sim.queue.cancel_ns_op"] = c.perOp(func() {
		eng.At(eng.Now()+sim.Time(eng.Rand().Intn(1000)), noop).Cancel()
		eng.At(eng.Now()+sim.Time(eng.Rand().Intn(1000)), noop)
		eng.Step()
	})
}

// physMicros times one frame through the raw network and through the
// reliable sublayer without loss, on the workload's topology, with no-op
// handlers and the delivery events included.
func physMicros(c *ctx, g *graph.Graph, seed int64, v values) {
	nodes := g.Nodes()
	edges := g.Edges()
	rng := rand.New(rand.NewSource(seed))
	noop := phys.HandlerFunc(func(phys.Message) {})

	eng := sim.NewEngine(seed)
	raw := phys.NewNetwork(eng, g)
	for _, id := range nodes {
		raw.Register(id, noop)
	}
	v["phys.send_ns_frame"] = c.perOp(func() {
		e := edges[rng.Intn(len(edges))]
		raw.Send(phys.Message{From: e.U, To: e.V, Kind: "bench"})
		eng.Run(0)
	})
	frames := 0
	perBroadcast := c.perOp(func() {
		frames += raw.Broadcast(nodes[rng.Intn(len(nodes))], "bench", nil)
		eng.Run(0)
	})
	// perOp's last batch dominates frames; the mean degree converts exactly.
	v["phys.broadcast_ns_frame"] = perBroadcast / (2 * float64(len(edges)) / float64(len(nodes)))

	// With heartbeats out of the way a frame is its data, its ACK and the
	// cancelled retransmission timer; at latency 1 all land within 4 ticks.
	eng = sim.NewEngine(seed)
	cfg := rel.DefaultConfig()
	cfg.HeartbeatEvery = 1 << 40
	reliable := rel.New(phys.NewNetwork(eng, g), cfg)
	for _, id := range nodes {
		reliable.Register(id, noop)
	}
	v["rel.send_ack_ns_frame"] = c.perOp(func() {
		e := edges[rng.Intn(len(edges))]
		reliable.Send(phys.Message{From: e.U, To: e.V, Kind: "bench"})
		eng.RunUntil(eng.Now()+4, nil)
	})
	sink = frames
}

// cacheMicros times the route cache's exported functions on the caches of
// a bootstrapped cluster's nodes.
func cacheMicros(c *ctx, caches []*cache.Cache, seed int64, v values) {
	rng := rand.New(rand.NewSource(seed))
	pick := func() *cache.Cache { return caches[rng.Intn(len(caches))] }

	// Insert: offer a node's routes, in identifier order, to an empty cache
	// of the same owner and mode.
	type offer struct {
		owner  ids.ID
		mode   cache.Mode
		routes []sroute.Route
	}
	offers := make([]offer, len(caches))
	var all []sroute.Route
	for i, rc := range caches {
		offers[i] = offer{owner: rc.Owner(), mode: rc.Mode()}
		for _, dst := range rc.Destinations() {
			offers[i].routes = append(offers[i].routes, rc.Route(dst))
		}
		all = append(all, offers[i].routes...)
	}
	inserted := 0
	perCache := c.perOp(func() {
		o := offers[rng.Intn(len(offers))]
		fresh := cache.New(o.owner, o.mode)
		for _, r := range o.routes {
			if fresh.Insert(r) {
				inserted++
			}
		}
	})
	v["cache.insert_ns_op"] = perCache / (float64(len(all)) / float64(len(caches)))

	found := 0
	v["cache.nearest_ns_op"] = c.perOp(func() {
		if _, ok := pick().Nearest(ids.Left); ok {
			found++
		}
	})
	v["cache.neighbors_dir_ns_op"] = c.perOp(func() { found += len(pick().NeighborsDir(ids.Right)) })
	v["cache.best_toward_ns_op"] = c.perOp(func() {
		if _, ok := pick().BestToward(ids.ID(rng.Uint64())); ok {
			found++
		}
	})

	// The route composition of a notification: reverse(a) ++ b for two
	// routes of one owner, then loop elision at the trust boundary.
	v["sroute.append_elide_ns_op"] = c.perOp(func() {
		o := offers[rng.Intn(len(offers))]
		a, b := o.routes[rng.Intn(len(o.routes))], o.routes[rng.Intn(len(o.routes))]
		if joined, err := a.Reverse().Append(b); err == nil {
			found += len(joined.ElideLoops())
		}
	})
	sink = inserted + found
}

// traceMicros times Emit of a message-send event into each sink.
func traceMicros(c *ctx, v values) {
	ev := trace.Event{T: 1234, Type: trace.EvMsgSend, Node: 0x1234567890abcdef, Peer: 0xfedcba0987654321, Kind: "ssr:notify", Value: 1}
	rec := &trace.Recorder{}
	v["trace.emit_ns_event.recorder"] = c.perOp(func() { rec.Emit(ev) })
	stats := trace.NewStatsSink()
	v["trace.emit_ns_event.stats"] = c.perOp(func() { stats.Emit(ev) })
	w := trace.NewJSONLWriter(&countingWriter{})
	v["trace.emit_ns_event.jsonl"] = c.perOp(func() { w.Emit(ev) })
}
