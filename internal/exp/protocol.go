package exp

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/floodboot"
	"repro/internal/graph"
	"repro/internal/isprp"
	"repro/internal/metrics"
	"repro/internal/phys"
	"repro/internal/rel"
	"repro/internal/sim"
	"repro/internal/ssr"
	"repro/internal/trace"
	"repro/internal/vrr"
)

func newNet(topo graph.Topology, n int, seed int64) *phys.Network {
	eng := sim.NewEngine(seed, sim.WithTracer(tracer))
	return phys.NewNetwork(eng, topoOrDie(topo, n, seed), phys.WithTracer(tracer))
}

// newTransportNet builds a raw network plus the transport protocols should
// run over, honoring the harness-wide SetTransport selection. The raw
// network stays the handle for fault injection and counters even when the
// reliable sublayer is interposed.
func newTransportNet(topo graph.Topology, n int, seed int64) (*phys.Network, phys.Transport) {
	raw := newNet(topo, n, seed)
	if transportName == TransportReliable {
		return raw, rel.New(raw, rel.DefaultConfig())
	}
	return raw, raw
}

// MessageCost reproduces experiment E6: physical frames to global
// consistency for ISPRP+flood vs the linearization bootstrap, with the
// flood share broken out — quantifying the paper's headline "does not
// require any flooding at all".
func MessageCost(sizes []int, topo graph.Topology, seeds int) Report {
	rep := Report{ID: "E6", Title: fmt.Sprintf("Bootstrap message cost on %s graphs", topo)}
	tab := metrics.NewTable("protocol", "n", "converged", "time mean", "msgs mean", "flood mean", "flood share")
	for _, n := range sizes {
		type agg struct {
			conv       int
			time, msgs []int64
			flood      []int64
		}
		collect := func(run func(seed int64) (bool, int64, int64, int64)) agg {
			var a agg
			for s := 0; s < seeds; s++ {
				ok, at, msgs, flood := run(int64(101*n + s))
				if ok {
					a.conv++
				}
				a.time = append(a.time, at)
				a.msgs = append(a.msgs, msgs)
				a.flood = append(a.flood, flood)
			}
			return a
		}
		deadline := sim.Time(n) * 4096

		af := collect(func(seed int64) (bool, int64, int64, int64) {
			net := newNet(topo, n, seed)
			cl := floodboot.NewCluster(net)
			at, ok := cl.RunUntilConsistent(deadline)
			total := net.Counters().Total()
			return ok, int64(at), total, total // every frame is a flood frame
		})
		ai := collect(func(seed int64) (bool, int64, int64, int64) {
			net := newNet(topo, n, seed)
			cl := isprp.NewCluster(net, isprp.Config{EnableFlood: true})
			at, ok := cl.RunUntilConsistent(deadline)
			cl.Stop()
			return ok, int64(at), net.Counters().Total(), net.Counters().Get(isprp.KindFlood)
		})
		al := collect(func(seed int64) (bool, int64, int64, int64) {
			net := newNet(topo, n, seed)
			cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Bounded})
			at, ok := cl.RunUntilConsistent(deadline)
			cl.Stop()
			return ok, int64(at), net.Counters().Total(), 0
		})

		add := func(name string, a agg) {
			ts := metrics.Summarize(metrics.Int64s(a.time))
			ms := metrics.Summarize(metrics.Int64s(a.msgs))
			fs := metrics.Summarize(metrics.Int64s(a.flood))
			share := 0.0
			if ms.Mean > 0 {
				share = fs.Mean / ms.Mean
			}
			tab.AddRow(name, n, fmt.Sprintf("%d/%d", a.conv, seeds), ts.Mean, ms.Mean, fs.Mean, share)
		}
		add("full flood", af)
		add("isprp+flood", ai)
		add("linearization", al)
	}
	rep.Table = tab
	rep.Notes = append(rep.Notes,
		"linearization's flood column is structurally zero: the protocol has no flood primitive")
	return rep
}

// MessageBreakdown details the per-kind message mix of one linearization
// bootstrap — the companion table to E6. The taxonomy comes from a
// tracer-fed stats sink watching the physical layer, so the same breakdown
// is available for any traced run, not just this harness.
func MessageBreakdown(n int, topo graph.Topology, seed int64) Report {
	rep := Report{ID: "E6b", Title: "Linearization bootstrap message mix"}
	net := newNet(topo, n, seed)
	sink := trace.NewStatsSink()
	net.SetTracer(trace.Tee(net.Tracer(), sink))
	cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
	at, ok := cl.RunUntilConsistent(sim.Time(n) * 4096)
	cl.Stop()
	rep.Table = trace.TaxonomyTable(sink.MessageTaxonomy())
	rep.Notes = append(rep.Notes, fmt.Sprintf("n=%d converged=%v at t=%d", n, ok, at))
	if drops := sink.Drops(); len(drops) > 0 {
		parts := make([]string, len(drops))
		for i, d := range drops {
			parts[i] = fmt.Sprintf("%s=%d", d.Kind, d.Count)
		}
		rep.Notes = append(rep.Notes, "drops: "+strings.Join(parts, " "))
	}
	return rep
}

// Routing reproduces experiment E7: after a linearization bootstrap with
// ring closure, SSR's greedy routing must succeed for every pair; the
// stretch distribution is reported alongside.
func Routing(n int, topo graph.Topology, pairs int, seed int64) Report {
	rep := Report{ID: "E7", Title: "SSR greedy routing after convergence"}
	net := newNet(topo, n, seed)
	cl := ssr.NewCluster(net, ssr.Config{
		CacheMode: cache.Bounded, CloseRing: true, BothDirections: true,
	})
	_, ok := cl.RunUntilConsistent(sim.Time(n) * 4096)
	if !ok {
		rep.Notes = append(rep.Notes, "BOOTSTRAP DID NOT CONVERGE; routing numbers meaningless")
	}
	cl.Stop()
	results := cl.AllPairsRouting(pairs, 8192)
	delivered := 0
	var stretch []float64
	var segs []int
	for _, r := range results {
		if r.Delivered {
			delivered++
			if s := r.Stretch(); s > 0 {
				stretch = append(stretch, s)
			}
			segs = append(segs, r.Segments)
		}
	}
	tab := metrics.NewTable("metric", "value")
	tab.AddRow("pairs attempted", len(results))
	tab.AddRow("delivered", delivered)
	tab.AddRow("success rate", float64(delivered)/float64(max(1, len(results))))
	ss := metrics.Summarize(stretch)
	tab.AddRow("stretch mean", ss.Mean)
	tab.AddRow("stretch p90", ss.P90)
	tab.AddRow("stretch max", ss.Max)
	gs := metrics.Summarize(metrics.Ints(segs))
	tab.AddRow("greedy segments mean", gs.Mean)
	rep.Table = tab
	rep.Notes = append(rep.Notes,
		"§1: once the ring is consistent, greedy routing is guaranteed for every pair — success rate must be 1.00")
	return rep
}

// CacheOccupancy reproduces the §4 observation backing LSN's applicability:
// after bootstrap, SSR route caches hold about one entry per exponential
// interval — the shortcut set LSN needs comes for free.
func CacheOccupancy(n int, topo graph.Topology, seed int64) Report {
	rep := Report{ID: "E8b", Title: "SSR cache occupancy vs LSN interval structure"}
	net := newNet(topo, n, seed)
	cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Bounded})
	_, ok := cl.RunUntilConsistent(sim.Time(n) * 4096)
	cl.Stop()
	var entries, occL, occR []int
	for _, node := range cl.Nodes {
		entries = append(entries, node.Cache().Len())
		l, r := node.Cache().IntervalOccupancy()
		occL = append(occL, l)
		occR = append(occR, r)
	}
	tab := metrics.NewTable("metric", "mean", "p90", "max")
	es := metrics.Summarize(metrics.Ints(entries))
	ls := metrics.Summarize(metrics.Ints(occL))
	rs := metrics.Summarize(metrics.Ints(occR))
	tab.AddRow("cache entries/node", es.Mean, es.P90, es.Max)
	tab.AddRow("occupied left intervals", ls.Mean, ls.P90, ls.Max)
	tab.AddRow("occupied right intervals", rs.Mean, rs.P90, rs.Max)
	rep.Table = tab
	rep.Notes = append(rep.Notes, fmt.Sprintf("n=%d converged=%v; bound is 2×64 slots", n, ok))
	return rep
}

// RingClosure reproduces experiment E10: discovery-based ring closure, one
// direction vs both (§4 recommends both "for sake of redundancy").
func RingClosure(n int, topo graph.Topology, seeds int) Report {
	rep := Report{ID: "E10", Title: "Ring closure: discovery redundancy"}
	tab := metrics.NewTable("directions", "converged", "time mean", "discover frames mean")
	for _, both := range []bool{false, true} {
		conv := 0
		var times, frames []int64
		for s := 0; s < seeds; s++ {
			net := newNet(topo, n, int64(55*n+s))
			cl := ssr.NewCluster(net, ssr.Config{
				CacheMode: cache.Bounded, CloseRing: true, BothDirections: both,
			})
			at, ok := cl.RunUntilConsistent(sim.Time(n) * 4096)
			cl.Stop()
			if ok {
				conv++
			}
			times = append(times, int64(at))
			frames = append(frames, net.Counters().Get(ssr.KindDiscover)+net.Counters().Get(ssr.KindDiscoverAck))
		}
		name := "clockwise only"
		if both {
			name = "both directions"
		}
		ts := metrics.Summarize(metrics.Int64s(times))
		fs := metrics.Summarize(metrics.Int64s(frames))
		tab.AddRow(name, fmt.Sprintf("%d/%d", conv, seeds), ts.Mean, fs.Mean)
	}
	rep.Table = tab
	return rep
}

// VRRBootstrap reproduces experiment E11: linearized VRR converges without
// any representative mechanism; state and message cost are compared with
// SSR's source-route realization.
func VRRBootstrap(n int, topo graph.Topology, seeds int) Report {
	rep := Report{ID: "E11", Title: "Linearized VRR (path state) vs SSR (source routes)"}
	tab := metrics.NewTable("protocol", "converged", "time mean", "msgs mean", "state/node mean")
	var vrrTimes, vrrMsgs []int64
	var vrrState []int
	vrrConv := 0
	for s := 0; s < seeds; s++ {
		net := newNet(topo, n, int64(71*n+s))
		cl := vrr.NewCluster(net, vrr.Config{CloseRing: true})
		at, ok := cl.RunUntilConsistent(sim.Time(n) * 8192)
		cl.Stop()
		if ok {
			vrrConv++
		}
		vrrTimes = append(vrrTimes, int64(at))
		vrrMsgs = append(vrrMsgs, net.Counters().Total())
		vrrState = append(vrrState, cl.StateSummary()...)
	}
	var ssrTimes, ssrMsgs []int64
	var ssrState []int
	ssrConv := 0
	for s := 0; s < seeds; s++ {
		net := newNet(topo, n, int64(71*n+s))
		cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
		at, ok := cl.RunUntilConsistent(sim.Time(n) * 8192)
		cl.Stop()
		if ok {
			ssrConv++
		}
		ssrTimes = append(ssrTimes, int64(at))
		ssrMsgs = append(ssrMsgs, net.Counters().Total())
		for _, node := range cl.Nodes {
			ssrState = append(ssrState, node.Cache().Len())
		}
	}
	vt := metrics.Summarize(metrics.Int64s(vrrTimes))
	vm := metrics.Summarize(metrics.Int64s(vrrMsgs))
	vs := metrics.Summarize(metrics.Ints(vrrState))
	st := metrics.Summarize(metrics.Int64s(ssrTimes))
	sm := metrics.Summarize(metrics.Int64s(ssrMsgs))
	ss := metrics.Summarize(metrics.Ints(ssrState))
	tab.AddRow("vrr (paths)", fmt.Sprintf("%d/%d", vrrConv, seeds), vt.Mean, vm.Mean, vs.Mean)
	tab.AddRow("ssr (routes)", fmt.Sprintf("%d/%d", ssrConv, seeds), st.Mean, sm.Mean, ss.Mean)
	rep.Table = tab
	rep.Notes = append(rep.Notes,
		"VRR state counts path-table entries (including transit paths); SSR counts cached routes",
		"VRR messages include the periodic hello beacons VRR needs for neighbor discovery")
	return rep
}

// ChurnRecovery reproduces the message-level half of experiment E9: after
// convergence a fraction of nodes fail; the survivors must re-linearize.
func ChurnRecovery(n int, topo graph.Topology, kill int, seed int64) Report {
	rep := Report{ID: "E9b", Title: "Message-level churn recovery"}
	net := newNet(topo, n, seed)
	cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Unbounded})
	bootAt, ok := cl.RunUntilConsistent(sim.Time(n) * 4096)
	tab := metrics.NewTable("phase", "converged", "time")
	tab.AddRow("bootstrap", ok, int64(bootAt))
	if !ok {
		rep.Table = tab
		return rep
	}
	// Kill interior nodes (keep the extremes and connectivity).
	nodes := net.Topology().Nodes()
	killed := 0
	for i := 1; i < len(nodes)-1 && killed < kill; i += 3 {
		v := nodes[i]
		topoAfter := net.Topology().Clone()
		topoAfter.RemoveNode(v)
		if !topoAfter.Connected() {
			continue
		}
		net.FailNode(v)
		for u, node := range cl.Nodes {
			if u != v {
				node.Cache().Remove(v)
			}
		}
		delete(cl.Nodes, v)
		killed++
	}
	recAt, recOK := cl.RunUntilConsistent(bootAt + sim.Time(n)*4096)
	tab.AddRow(fmt.Sprintf("recovery after killing %d", killed), recOK, int64(recAt-bootAt))
	cl.Stop()
	rep.Table = tab
	rep.Notes = append(rep.Notes,
		"failure detection is modeled as instantaneous cache purge; recovery itself uses only linearization")
	return rep
}

// TeardownAblation compares the §4 optional teardown (pure-like protocol)
// with the keep-everything variant (memory-like) on messages and state.
func TeardownAblation(n int, topo graph.Topology, seeds int) Report {
	rep := Report{ID: "A2", Title: "Teardown ablation: §4 edge removal on/off"}
	tab := metrics.NewTable("teardown", "converged", "time mean", "msgs mean", "routes/node mean")
	for _, tear := range []bool{false, true} {
		conv := 0
		var times, msgs []int64
		var state []int
		for s := 0; s < seeds; s++ {
			net := newNet(topo, n, int64(91*n+s))
			cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Unbounded, Teardown: tear})
			at, ok := cl.RunUntilConsistent(sim.Time(n) * 4096)
			cl.Stop()
			if ok {
				conv++
			}
			times = append(times, int64(at))
			msgs = append(msgs, net.Counters().Total())
			for _, node := range cl.Nodes {
				state = append(state, node.Cache().Len())
			}
		}
		ts := metrics.Summarize(metrics.Int64s(times))
		ms := metrics.Summarize(metrics.Int64s(msgs))
		ss := metrics.Summarize(metrics.Ints(state))
		tab.AddRow(tear, fmt.Sprintf("%d/%d", conv, seeds), ts.Mean, ms.Mean, ss.Mean)
	}
	rep.Table = tab
	return rep
}
