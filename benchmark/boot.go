package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/isprp"
	"repro/internal/phys"
	"repro/internal/rel"
	"repro/internal/sim"
	"repro/internal/ssr"
	"repro/internal/trace"
	"repro/internal/vrr"
)

// bootSpec is a message-level workload: one bootstrap per protocol in
// protos, each on a fresh engine and network over the same generated
// topology, driven to global consistency; then, with packets > 0, a route
// phase on the SSR ring.
type bootSpec struct {
	protos   []string // "ssr", "isprp", "vrr"
	topo     graph.Topology
	n, tinyN int
	loss     float64 // frame loss; > 0 puts rel.New over the raw network
	sink     string  // trace sink on engine, network and cluster: "" or "jsonl"
	packets  int     // data packets routed after the SSR bootstrap
}

const (
	// bootDeadline bounds a linearization bootstrap (SSR, VRR) in simulated
	// ticks. Those that converge do so within 300 ticks at these sizes; VRR
	// never converges on about a fifth of its inputs (README, "Baseline
	// observations"), and this is where such an input is recognised
	// (repOut.stalled). ISPRP waits for its flood and takes thousands of
	// ticks, so it gets isprpDeadline.
	bootDeadline  = sim.Time(1024)
	isprpDeadline = sim.Time(1 << 16)
	// Packets enter the network in batches, in simulated time.
	routeBatch      = 64
	routeBatchEvery = sim.Time(4)
	routeDeadline   = sim.Time(4096) // ticks after the last injection
)

// cluster is what the three protocol drivers have in common.
type cluster interface {
	RunUntilConsistent(deadline sim.Time) (sim.Time, bool)
	Consistent() bool
	VirtualGraph() *graph.Graph
	Stop()
}

func newCluster(proto string, net phys.Transport) cluster {
	switch proto {
	case "ssr":
		return ssr.NewCluster(net, ssr.Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
	case "isprp":
		return isprp.NewCluster(net, isprp.Config{EnableFlood: true})
	case "vrr":
		return vrr.NewCluster(net, vrr.Config{CloseRing: true})
	}
	panic("unknown protocol " + proto)
}

// ringOracle verifies a bootstrapped cluster without its own Consistent():
// from the virtual graph the protocol exposes. ISPRP's successor pointers
// must be exactly the sorted ring; SSR and VRR keep shortcut edges, so
// their graph must be a connected superset of the line, and SSR's extremal
// nodes must hold each other as wrap partners.
func ringOracle(cl cluster) bool {
	vg := cl.VirtualGraph()
	switch cl := cl.(type) {
	case *isprp.Cluster:
		return vg.IsSortedRing()
	case *ssr.Cluster:
		nodes := vg.Nodes()
		_, right, _, hasRight := cl.Nodes[nodes[len(nodes)-1]].WrapPartners()
		left, _, hasLeft, _ := cl.Nodes[nodes[0]].WrapPartners()
		if !hasRight || right != nodes[0] || !hasLeft || left != nodes[len(nodes)-1] {
			return false
		}
	}
	return graph.NewCSR(vg).SupersetOfLine() && vg.Connected()
}

// runUntilConsistent is the clusters' RunUntilConsistent loop (all three
// are the same: step 8 ticks, check, repeat) with the stepping and the
// check as separate spans.
func runUntilConsistent(eng *sim.Engine, cl cluster, deadline sim.Time, rec *recorder) (sim.Time, bool) {
	const checkEvery = sim.Time(8)
	for next := eng.Now() + checkEvery; ; next += checkEvery {
		if next > deadline {
			next = deadline
		}
		rec.begin(spEngine)
		eng.RunUntil(next, nil)
		rec.end()
		rec.begin(spOracle)
		ok := cl.Consistent()
		rec.end()
		if ok {
			return eng.Now(), true
		}
		if next >= deadline || eng.Pending() == 0 {
			return eng.Now(), false
		}
	}
}

// countingWriter discards what it is given and counts the bytes. The
// JSONL sink writes into it, so the workload measures the sink's encoding
// and buffering, not this machine's filesystem.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (s bootSpec) rep(c *ctx, seed int64, rec *recorder) *repOut {
	return s.repWithSink(c, seed, rec, s.sink)
}

func (s bootSpec) repWithSink(c *ctx, seed int64, rec *recorder, sinkKind string) *repOut {
	out := newRepOut()
	v := out.v
	n := c.size(s.n, s.tinyN)

	rec.begin(spSetup)
	t0 := time.Now()
	g, err := graph.Generate(s.topo, n, graph.RandomIDs, seed)
	setup := time.Since(t0)
	rec.end()
	if !out.check(err == nil, "graph.Generate: %v", err) {
		return out
	}
	v["graph.generate_s"] = setup.Seconds()

	var tracer trace.Tracer
	var jsonl *trace.JSONLWriter
	var written countingWriter
	switch sinkKind {
	case "jsonl":
		jsonl = trace.NewJSONLWriter(&written)
		tracer = jsonl
	case "stats":
		tracer = trace.NewStatsSink()
	}
	var wall time.Duration
	var mem memDelta
	var simTime sim.Time
	var frames, events int64
	var spanned time.Duration // traced: time inside engine and oracle spans

	for _, proto := range s.protos {
		from := 0
		if rec != nil {
			from = len(rec.spans)
		}
		rec.begin(spSetup)
		t0 := time.Now()
		eng := sim.NewEngine(seed, sim.WithTracer(tracer))
		raw := phys.NewNetwork(eng, g, phys.WithLoss(s.loss), phys.WithTracer(tracer))
		var net phys.Transport = raw
		var reliable *rel.Network
		if s.loss > 0 {
			reliable = rel.New(raw, rel.DefaultConfig())
			net = reliable
		}
		if rec != nil {
			net = wrapTransport(net, rec)
		}
		cl := newCluster(proto, net)
		setup += time.Since(t0)
		rec.end()

		deadline := bootDeadline
		if proto == "isprp" {
			deadline = isprpDeadline
		}
		m0 := readMem()
		t1 := time.Now()
		var at sim.Time
		var ok bool
		if rec == nil {
			at, ok = cl.RunUntilConsistent(deadline)
		} else {
			at, ok = runUntilConsistent(eng, cl, deadline, rec)
		}
		bootWall := time.Since(t1)
		bootMem := memSince(m0)

		// An input that is not consistent by the deadline stays in the run
		// with what it cost up to there (repOut.stalled).
		if ok {
			out.check(ringOracle(cl), "%s: virtual graph fails the ring oracle", proto)
		} else {
			out.stalled = true
		}
		simTime += at
		wall += bootWall
		mem.add(bootMem)
		frames += raw.Counters().Total()
		v["msgs_per_node"] = float64(frames) / float64(n) // at consistency, before any route phase

		if sc, isSSR := cl.(*ssr.Cluster); !isSSR {
			v[proto+".wall_s"] = bootWall.Seconds()
		} else {
			v["ssr.boot_wall_s"] = bootWall.Seconds()
			entries, routeNodes := 0, 0
			for _, id := range net.Nodes() {
				rc := sc.Nodes[id].Cache()
				entries += rc.Len()
				routeNodes += rc.TotalRouteNodes()
				out.caches = append(out.caches, rc)
			}
			v["cache.entries_mean"] = float64(entries) / float64(n)
			v["cache.route_nodes_mean"] = float64(routeNodes) / float64(n)
			if s.packets > 0 && ok {
				routeWall, routeMem := s.routePhase(sc, seed, rec, out)
				wall += routeWall
				mem.add(routeMem)
			}
		}
		cl.Stop()
		events += eng.EventsExecuted()

		drops := raw.Counters().TotalMatching(func(k string) bool { return strings.HasPrefix(k, "drop:") })
		if total := raw.Counters().Total(); total > 0 {
			v["phys.drop_ratio"] = float64(drops) / float64(total)
		}
		if reliable != nil {
			st := reliable.Stats()
			if st.Sent > 0 {
				v["rel.retransmit_ratio"] = float64(st.Retransmits) / float64(st.Sent)
				v["rel.wire_frames_per_send"] = float64(raw.Counters().Total()) / float64(st.Sent)
			}
			v["rel.abandons"] = float64(st.Abandons)
			v["rel.heartbeats"] = float64(st.Heartbeats)
		}
		if rec != nil {
			t := rec.totals(from)
			v[proto+".handler_self_s"] = t[spHandler].own.Seconds()
			sendSpan := "phys.send_span_s"
			if reliable != nil {
				sendSpan = "rel.send_span_s"
			}
			v[sendSpan] += t[spSend].total.Seconds()
			v["sim.residual_s"] += t[spEngine].own.Seconds()
			spanned += t[spEngine].total + t[spOracle].total
			if proto == "ssr" {
				v["ssr.oracle_s"] = t[spOracle].total.Seconds()
				v["ssr.consistent_check_ms"] = t[spOracle].total.Seconds() * 1e3 / float64(t[spOracle].count)
			}
		}
		if out.stalled {
			break
		}
	}

	if jsonl != nil {
		err := jsonl.Close()
		out.check(err == nil, "trace sink: %v", err)
		v["trace.events_per_run"] = float64(jsonl.Count())
		v["trace.bytes_per_event"] = float64(written.n) / float64(jsonl.Count())
	}
	v["setup_s"] = setup.Seconds()
	v["wall_s"] = wall.Seconds()
	v["sim_time"] = float64(simTime)
	mem.into(v, float64(events))
	v["sim.events"] = float64(events)
	v["sim.events_per_s"] = float64(events) / wall.Seconds()
	v["phys.frames"] = float64(frames)
	if rec != nil {
		v["bench.span_coverage_pct"] = 100 * spanned.Seconds() / wall.Seconds()
	}
	return out
}

func (d *memDelta) add(o memDelta) {
	d.allocMB += o.allocMB
	d.mallocs += o.mallocs
	d.gcCycles += o.gcCycles
	d.gcPauseMs += o.gcPauseMs
}

// routePhase routes s.packets data packets between random pairs on the
// bootstrapped ring and returns the host time the engine took to carry them
// and what the Go runtime did over that same window. It is an
// open loop in simulated time: routeBatch packets every routeBatchEvery
// ticks whatever the network does with the earlier ones. A packet SendData
// refuses, or that has not reached OnDeliver routeDeadline ticks after the
// last injection, has failed.
func (s bootSpec) routePhase(cl *ssr.Cluster, seed int64, rec *recorder, out *repOut) (time.Duration, memDelta) {
	eng := cl.Net.Engine()
	nodes := cl.Net.Nodes()
	rng := rand.New(rand.NewSource(seed))
	type packet struct {
		src, dst         ids.ID
		shortest         int
		sentAt           sim.Time
		latency          sim.Time
		hops, segments   int
		refused, arrived bool
	}
	pkts := make([]packet, s.packets)
	for i := range pkts {
		p := &pkts[i]
		p.src = nodes[rng.Intn(len(nodes))]
		for p.dst = p.src; p.dst == p.src; {
			p.dst = nodes[rng.Intn(len(nodes))]
		}
		p.shortest = len(cl.Net.Topology().ShortestPath(p.src, p.dst)) - 1
	}
	settled := 0
	for _, node := range cl.Nodes {
		node.OnDeliver = func(d ssr.Delivery) {
			if i, ok := d.Body.(int); ok && !pkts[i].arrived {
				p := &pkts[i]
				p.arrived = true
				p.latency = eng.Now() - p.sentAt
				p.hops, p.segments = d.Hops, d.Segments
				settled++
			}
		}
	}
	start := eng.Now()
	var last sim.Time
	for lo := 0; lo < len(pkts); lo += routeBatch {
		lo, hi := lo, min(lo+routeBatch, len(pkts))
		last = start + sim.Time(lo/routeBatch)*routeBatchEvery
		eng.At(last, func() {
			rec.begin(spHandler) // SSR's forwarding code, entered from the injector
			for i := lo; i < hi; i++ {
				pkts[i].sentAt = eng.Now()
				if !cl.Nodes[pkts[i].src].SendData(pkts[i].dst, i) {
					pkts[i].refused = true
					settled++
				}
			}
			rec.end()
		})
	}

	m0 := readMem()
	t0 := time.Now()
	rec.begin(spEngine)
	eng.RunUntil(last+routeDeadline, func() bool { return settled == len(pkts) })
	rec.end()
	wall := time.Since(t0)
	mem := memSince(m0)

	v := out.v
	var lat []float64
	var stretch, hops, segments float64
	fp := fnv.New64a()
	for i, p := range pkts {
		if !out.check(p.arrived, "packet %d %v->%v: refused=%v, not delivered", i, p.src, p.dst, p.refused) {
			continue
		}
		lat = append(lat, float64(p.latency))
		stretch += float64(p.hops) / float64(p.shortest)
		hops += float64(p.hops)
		segments += float64(p.segments)
		fmt.Fprintf(fp, "%d:%d/%d/%d;", i, p.hops, p.segments, p.latency)
	}
	out.routeFingerprint = fp.Sum64()
	delivered := float64(len(lat))
	v["ssr.route_wall_s"] = wall.Seconds()
	v["ssr.route_failed"] = float64(len(pkts)) - delivered
	if delivered > 0 {
		v["route_pkts_per_s"] = delivered / wall.Seconds()
		v["route_stretch_mean"] = stretch / delivered
		v["route_latency_ticks_p50"] = quantile(lat, 0.5)
		v["route_latency_ticks_p99"] = quantile(lat, 0.99)
		v["ssr.route_hops_mean"] = hops / delivered
		v["ssr.route_segments_mean"] = segments / delivered
	}
	return wall, mem
}

// extras times the exported functions of the layers under the bootstrap on
// state captured from the finished repetition, and for a workload with a
// trace sink measures what the sink costs against a nil tracer.
func (s bootSpec) extras(c *ctx, seed int64, last *repOut) *repOut {
	out := newRepOut()
	v := out.v
	if s.sink != "" {
		// Median of three per sink: one repetition of a tenth of a second
		// is too noisy to take a difference from.
		wall := func(kind string) float64 {
			var xs []float64
			for i := 0; i < 3; i++ {
				o := s.repWithSink(c, seed, nil, kind)
				out.check(o.failed == 0 && o.v["sim_time"] == last.v["sim_time"], "sink %q changed the run: %v", kind, o.notes)
				xs = append(xs, o.v["wall_s"])
			}
			return quantile(xs, 0.5)
		}
		base := wall("")
		v["trace.jsonl_overhead_pct"] = 100 * (wall(s.sink) - base) / base
		v["trace.stats_overhead_pct"] = 100 * (wall("stats") - base) / base
		traceMicros(c, v)
	}
	g, err := graph.Generate(s.topo, c.size(s.n, s.tinyN), graph.RandomIDs, seed)
	if !out.check(err == nil, "graph.Generate: %v", err) {
		return out
	}
	queueMicros(c, v)
	physMicros(c, g, seed, v)
	if len(last.caches) > 0 {
		cacheMicros(c, last.caches, seed, v)
	}
	return out
}
