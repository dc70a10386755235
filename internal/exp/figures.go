package exp

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isprp"
	"repro/internal/linearize"
	"repro/internal/metrics"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/ssr"
	"repro/internal/trace"
	"repro/internal/vring"
)

// Fig1Loopy reproduces Figure 1 / experiment E1: the loopy state is
// ISPRP-locally consistent, so ISPRP without flooding never escapes it;
// ISPRP's representative flood resolves it; and linearization resolves it
// with no flooding at all.
func Fig1Loopy(seed int64) Report {
	rep := Report{ID: "E1/Fig1", Title: "The loopy state: locally consistent, globally wrong"}
	loopy := vring.LoopyExample()

	var text string
	text += "Successor view (single ring winding twice around the id space):\n"
	text += trace.RenderRing(loopy)
	text += "\nLine view (the inconsistency becomes locally visible, §3):\n"
	text += trace.RenderLine(loopy.ToGraph())
	rep.Text = text

	tab := metrics.NewTable("mechanism", "resolves", "time", "messages", "flood frames")

	// ISPRP, no flood: runs forever locally consistent.
	{
		net, cl := isprpOnLoopy(seed, isprp.Config{EnableFlood: false})
		at, ok := cl.RunUntilConsistent(40000)
		tab.AddRow("isprp (no flood)", ok, int64(at), net.Counters().Total(), net.Counters().Get(isprp.KindFlood))
		cl.Stop()
	}
	// ISPRP with the representative flood.
	{
		net, cl := isprpOnLoopy(seed, isprp.Config{EnableFlood: true})
		at, ok := cl.RunUntilConsistent(120000)
		tab.AddRow("isprp (flood)", ok, int64(at), net.Counters().Total(), net.Counters().Get(isprp.KindFlood))
		cl.Stop()
	}
	// SSR linearization: no flooding at all.
	{
		net, tr := netOn(newEngine(seed), loopy.ToGraph())
		cl := ssr.NewCluster(tr, ssr.Config{CacheMode: cache.Unbounded})
		at, ok := cl.RunUntilConsistent(120000)
		tab.AddRow("linearization", ok, int64(at), net.Counters().Total(), 0)
		cl.Stop()
	}
	rep.Table = tab
	rep.Notes = append(rep.Notes,
		"ISPRP's local view accepts the loopy state; only the flood (or linearization) detects it")
	return rep
}

func isprpOnLoopy(seed int64, cfg isprp.Config) (*phys.Network, *isprp.Cluster) {
	loopy := vring.LoopyExample()
	net, tr := netOn(newEngine(seed), loopy.ToGraph())
	return net, isprp.NewClusterFrom(tr, cfg, loopy)
}

// Fig2SeparateRings reproduces Figure 2 / experiment E2: two disjoint
// virtual rings on one connected physical graph. The E_v := E_p
// initialization (§4) bridges them; linearization merges them into one
// line without flooding, while ISPRP again needs its flood.
func Fig2SeparateRings(seed int64) Report {
	rep := Report{ID: "E2/Fig2", Title: "Separate rings merged without flooding"}
	succ := vring.SeparateRingsExample()
	var text string
	text += "Two disjoint virtual rings (locally consistent each):\n"
	text += trace.RenderRing(succ)
	rep.Text = text

	tab := metrics.NewTable("mechanism", "merged", "time", "messages")
	// Linearization over physical graph = ring edges + one bridge.
	topo := succ.ToGraph()
	topo.AddEdge(18, 21)
	{
		net, tr := netOn(newEngine(seed), topo)
		cl := ssr.NewCluster(tr, ssr.Config{CacheMode: cache.Unbounded})
		at, ok := cl.RunUntilConsistent(120000)
		tab.AddRow("linearization (E_v := E_p)", ok, int64(at), net.Counters().Total())
		cl.Stop()
	}
	// Abstract check: the same merge in the round model.
	{
		stats, final := runLin(topo, linearize.Config{
			Variant: linearize.LSN, Scheduler: sim.Synchronous, Seed: seed,
		})
		tab.AddRow("abstract LSN (rounds)", stats.Converged, stats.Rounds, stats.EdgesAdded+stats.EdgesDropped)
		if comps := len(final.Components()); comps != 1 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("UNEXPECTED: %d components after LSN", comps))
		}
	}
	rep.Table = tab
	return rep
}

// Fig3Trace reproduces Figure 3 / experiment E3: the linearization
// algorithm at work, round by round, on the Figure 1 graph, ending in the
// sorted line (and, with ring closure, the virtual ring).
func Fig3Trace() Report {
	rep := Report{ID: "E3/Fig3", Title: "The linearization algorithm at work"}
	g := vring.LoopyExample().ToGraph()
	var rt trace.RoundTrace
	rt.ObserveInitial(g)
	stats, final := runLin(g, linearize.Config{
		Variant:   linearize.Pure,
		Scheduler: sim.Synchronous,
		OnRound:   rt.Observe,
	})
	rep.Text = rt.String()
	tab := metrics.NewTable("variant", "rounds", "converged", "final edges", "is sorted line")
	tab.AddRow("pure", stats.Rounds, stats.Converged, final.NumEdges(), final.IsLinearized())
	rep.Table = tab
	return rep
}

// Fig3ClosedRing extends E3/E10: the same run with ring closure, ending in
// the sorted virtual ring.
func Fig3ClosedRing() Report {
	rep := Report{ID: "E10", Title: "Ring closure via discovery (abstract)"}
	g := vring.LoopyExample().ToGraph()
	stats, final := runLin(g, linearize.Config{
		Variant:   linearize.Pure,
		Scheduler: sim.Synchronous,
		CloseRing: true,
	})
	tab := metrics.NewTable("variant", "rounds", "converged", "is sorted ring")
	tab.AddRow("pure+closering", stats.Rounds, stats.Converged, final.IsSortedRing())
	rep.Table = tab
	rep.Text = trace.RenderArcs(final)
	return rep
}
