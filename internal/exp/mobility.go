package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/isprp"
	"repro/internal/metrics"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/ssr"
	"repro/internal/vring"
)

// MobilityRecovery is experiment E12 (an extension in the spirit of §5's
// future work): a wireless unit-disk network under random-waypoint
// mobility. The ring is bootstrapped once; mobility then rewires the
// physical graph while SSR keeps running; after motion stops the protocol
// must re-converge — self-stabilization under realistic MANET churn.
func MobilityRecovery(n int, motionTicks int64, speed float64, seeds int) Report {
	rep := Report{ID: "E12", Title: "SSR under random-waypoint mobility"}
	tab := metrics.NewTable("seed", "link changes", "reconverged", "recovery time")
	recovered := 0
	for s := 0; s < seeds; s++ {
		eng := newEngine(int64(977*n + s))
		nodes := graph.MakeIDs(n, graph.RandomIDs, eng.Rand())
		radius := 0.42
		topo, pos := graph.UnitDisk(nodes, radius, eng.Rand())
		net, tr := netOn(eng, topo)
		cl := ssr.NewCluster(tr, ssr.Config{CacheMode: cache.Unbounded})
		if _, ok := cl.RunUntilConsistent(sim.Time(n) * 8192); !ok {
			tab.AddRow(s, "-", "bootstrap failed", "-")
			continue
		}
		mob := phys.NewMobility(net, pos, radius)
		mob.Speed = speed
		mob.Start()
		eng.RunUntil(eng.Now()+sim.Time(motionTicks), nil)
		mob.Stop()
		motionEnd := eng.Now()
		at, ok := cl.RunUntilConsistent(motionEnd + sim.Time(n)*8192)
		cl.Stop()
		if ok {
			recovered++
		}
		tab.AddRow(s, mob.LinkChanges(), ok, int64(at-motionEnd))
	}
	rep.Table = tab
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d/%d runs reconverged after %d ticks of motion", recovered, seeds, motionTicks),
		"physical connectivity is maintained by the mobility model (min-connectivity deployment)")
	return rep
}

// ScaledLoopy extends E1 to larger loopy states: LoopyState(nodes, k) winds
// k times around the identifier space, is ISPRP-locally consistent for any
// size, and linearization must straighten all of them without flooding.
func ScaledLoopy(sizes []int, step int, seed int64) Report {
	rep := Report{ID: "E1b", Title: fmt.Sprintf("Scaled loopy states (winding %d)", step)}
	tab := metrics.NewTable("n", "mechanism", "resolved", "time", "messages")
	for _, n := range sizes {
		nodes := graph.MakeIDs(n, graph.RandomIDs, rand.New(rand.NewSource(seed+int64(n))))
		loopy := vring.LoopyState(nodes, step)
		topo := loopy.ToGraph()

		// Linearization.
		net, tr := netOn(newEngine(seed), topo)
		cl := ssr.NewCluster(tr, ssr.Config{CacheMode: cache.Unbounded})
		at, ok := cl.RunUntilConsistent(sim.Time(n) * 8192)
		cl.Stop()
		tab.AddRow(n, "linearization", ok, int64(at), net.Counters().Total())

		// ISPRP without flood stays stuck (sampled at the smallest size to
		// keep the run cheap; the state is locally consistent by
		// construction at every size).
		if n == sizes[0] {
			net2, tr2 := netOn(newEngine(seed), topo)
			icl := isprp.NewClusterFrom(tr2, isprp.Config{EnableFlood: false}, loopy)
			at2, ok2 := icl.RunUntilConsistent(40000)
			icl.Stop()
			tab.AddRow(n, "isprp (no flood)", ok2, int64(at2), net2.Counters().Total())
		}
	}
	rep.Table = tab
	return rep
}
