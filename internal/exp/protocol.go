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
	"repro/internal/sim"
	"repro/internal/ssr"
	"repro/internal/trace"
	"repro/internal/vrr"
)

// MessageCost reproduces experiment E6: physical frames to global
// consistency for ISPRP+flood vs the linearization bootstrap, with the
// flood share broken out — quantifying the paper's headline "does not
// require any flooding at all".
func (h Harness) MessageCost(sizes []int, topo graph.Topology, seeds int) Report {
	rep := Report{ID: "E6", Title: fmt.Sprintf("Bootstrap message cost on %s graphs", topo)}
	tab := metrics.NewTable("protocol", "n", "converged", "time mean", "msgs mean", "flood mean", "flood share")
	for _, n := range sizes {
		deadline := sim.Time(n) * 4096
		add := func(name string, runs []bootRun, flood func(bootRun) float64) {
			ms, fs := over(runs, msgs), over(runs, flood)
			floodShare := 0.0
			if ms.Mean > 0 {
				floodShare = fs.Mean / ms.Mean
			}
			tab.AddRow(name, n, share(runs, booted), over(runs, bootTime).Mean, ms.Mean, fs.Mean, floodShare)
		}
		runs, _ := bootRuns(h, topo, n, seeds, 101, deadline, floodboot.NewCluster)
		add("full flood", runs, msgs) // every frame is a flood frame
		runs, _ = bootRuns(h, topo, n, seeds, 101, deadline, func(t phys.Transport) *isprp.Cluster {
			return isprp.NewCluster(t, isprp.Config{EnableFlood: true})
		})
		add("isprp+flood", runs, frames(isprp.KindFlood))
		runs, _ = bootRuns(h, topo, n, seeds, 101, deadline, ssrOver(ssr.Config{CacheMode: cache.Bounded}))
		add("linearization", runs, frames()) // no flood kind to count
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
func (h Harness) MessageBreakdown(n int, topo graph.Topology, seed int64) Report {
	rep := Report{ID: "E6b", Title: "Linearization bootstrap message mix"}
	net, tr := h.newNet(topo, n, seed)
	sink := trace.NewStatsSink()
	net.SetTracer(trace.Tee(net.Tracer(), sink))
	cl := ssr.NewCluster(tr, ssr.Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
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
func (h Harness) Routing(n int, topo graph.Topology, pairs int, seed int64) Report {
	rep := Report{ID: "E7", Title: "SSR greedy routing after convergence"}
	_, tr := h.newNet(topo, n, seed)
	cl := ssr.NewCluster(tr, ssr.Config{
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
func (h Harness) CacheOccupancy(n int, topo graph.Topology, seed int64) Report {
	rep := Report{ID: "E8b", Title: "SSR cache occupancy vs LSN interval structure"}
	_, tr := h.newNet(topo, n, seed)
	cl := ssr.NewCluster(tr, ssr.Config{CacheMode: cache.Bounded})
	_, ok := cl.RunUntilConsistent(sim.Time(n) * 4096)
	cl.Stop()
	var occL, occR []int
	for _, node := range cl.Nodes {
		l, r := node.Cache().IntervalOccupancy()
		occL = append(occL, l)
		occR = append(occR, r)
	}
	tab := metrics.NewTable("metric", "mean", "p90", "max")
	es := metrics.Summarize(metrics.Ints(cacheSizes(cl)))
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
func (h Harness) RingClosure(n int, topo graph.Topology, seeds int) Report {
	rep := Report{ID: "E10", Title: "Ring closure: discovery redundancy"}
	tab := metrics.NewTable("directions", "converged", "time mean", "discover frames mean")
	for _, both := range []bool{false, true} {
		runs, _ := bootRuns(h, topo, n, seeds, 55, sim.Time(n)*4096,
			ssrOver(ssr.Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: both}))
		name := "clockwise only"
		if both {
			name = "both directions"
		}
		tab.AddRow(name, share(runs, booted), over(runs, bootTime).Mean,
			over(runs, frames(ssr.KindDiscover, ssr.KindDiscoverAck)).Mean)
	}
	rep.Table = tab
	return rep
}

// VRRBootstrap reproduces experiment E11: linearized VRR converges without
// any representative mechanism; state and message cost are compared with
// SSR's source-route realization.
func (h Harness) VRRBootstrap(n int, topo graph.Topology, seeds int) Report {
	rep := Report{ID: "E11", Title: "Linearized VRR (path state) vs SSR (source routes)"}
	tab := metrics.NewTable("protocol", "converged", "time mean", "msgs mean", "state/node mean")
	deadline := sim.Time(n) * 8192
	runs, vcls := bootRuns(h, topo, n, seeds, 71, deadline, func(t phys.Transport) *vrr.Cluster {
		return vrr.NewCluster(t, vrr.Config{CloseRing: true})
	})
	tab.AddRow("vrr (paths)", share(runs, booted), over(runs, bootTime).Mean, over(runs, msgs).Mean,
		perNode(vcls, (*vrr.Cluster).StateSummary).Mean)
	runs, scls := bootRuns(h, topo, n, seeds, 71, deadline,
		ssrOver(ssr.Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true}))
	tab.AddRow("ssr (routes)", share(runs, booted), over(runs, bootTime).Mean, over(runs, msgs).Mean,
		perNode(scls, cacheSizes).Mean)
	rep.Table = tab
	rep.Notes = append(rep.Notes,
		"VRR state counts path-table entries (including transit paths); SSR counts cached routes",
		"VRR messages include the periodic hello beacons VRR needs for neighbor discovery")
	return rep
}

// ChurnRecovery reproduces the message-level half of experiment E9: after
// convergence a fraction of nodes fail; the survivors must re-linearize.
func (h Harness) ChurnRecovery(n int, topo graph.Topology, kill int, seed int64) Report {
	rep := Report{ID: "E9b", Title: "Message-level churn recovery"}
	net, tr := h.newNet(topo, n, seed)
	cl := ssr.NewCluster(tr, ssr.Config{CacheMode: cache.Unbounded})
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
func (h Harness) TeardownAblation(n int, topo graph.Topology, seeds int) Report {
	rep := Report{ID: "A2", Title: "Teardown ablation: §4 edge removal on/off"}
	tab := metrics.NewTable("teardown", "converged", "time mean", "msgs mean", "routes/node mean")
	for _, tear := range []bool{false, true} {
		runs, cls := bootRuns(h, topo, n, seeds, 91, sim.Time(n)*4096,
			ssrOver(ssr.Config{CacheMode: cache.Unbounded, Teardown: tear}))
		tab.AddRow(tear, share(runs, booted), over(runs, bootTime).Mean, over(runs, msgs).Mean,
			perNode(cls, cacheSizes).Mean)
	}
	rep.Table = tab
	return rep
}
