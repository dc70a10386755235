package exp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// PowerLawConvergence reproduces experiment E4: LSN convergence rounds on
// power-law graphs with α = 2, swept over network sizes. The paper quotes
// Onus et al.: convergence "in less than 39 rounds" for a large power-law
// graph with α = 2.
func (h Harness) PowerLawConvergence(sizes []int, seeds int) Report {
	rep := Report{ID: "E4", Title: "LSN on power-law graphs (α=2): rounds to convergence"}
	tab := metrics.NewTable("n", "runs", "rounds mean", "rounds max", "converged", "paper bound")
	worstEver := 0
	for _, n := range sizes {
		runs := h.linRuns(seeds, linearize.Config{Variant: linearize.LSN, Scheduler: sim.Synchronous},
			func(s int) *graph.Graph { return topoOrDie(graph.TopoPowerLaw, n, int64(1000*n+s)) })
		sum := over(runs, rounds)
		worstEver = max(worstEver, int(sum.Max))
		tab.AddRow(n, seeds, sum.Mean, int(sum.Max), share(runs, converged), "< 39")
	}
	rep.Table = tab
	if worstEver < 39 {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("all runs converged in at most %d rounds — consistent with the paper's '< 39 rounds' claim", worstEver))
	} else {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("worst run needed %d rounds — EXCEEDS the paper's 39-round figure", worstEver))
	}
	return rep
}

// ConvergenceShape reproduces experiment E5: convergence rounds of the
// three variants as a function of n, with a fitted growth exponent — the
// paper's qualitative claim is pure≈linear vs memory/LSN≈polylog. Pure runs
// under the sequential daemon on an adversarial (sorted-ring-distance) line
// start would be linear; on random graphs the separation shows in the
// exponent.
func (h Harness) ConvergenceShape(sizes []int, topo graph.Topology, seeds int) Report {
	rep := Report{ID: "E5", Title: fmt.Sprintf("Convergence shape by variant on %s graphs", topo)}
	tab := metrics.NewTable("variant", "n", "rounds mean", "rounds max")
	exps := metrics.NewTable("variant", "growth exponent (rounds ~ n^b)")
	for _, v := range linearize.Variants() {
		var series metrics.Series
		for _, n := range sizes {
			runs := h.linRuns(seeds, linearize.Config{Variant: v, Scheduler: sim.Synchronous},
				func(s int) *graph.Graph { return topoOrDie(topo, n, int64(31*n+s)) })
			sum := over(runs, rounds)
			tab.AddRow(v.String(), n, sum.Mean, int(sum.Max))
			series.Add(float64(n), sum.Mean)
		}
		if b, ok := series.GrowthExponent(); ok {
			exps.AddRow(v.String(), b)
		}
	}
	rep.Table = tab
	rep.Text = exps.String()
	rep.Notes = append(rep.Notes,
		"exponent near 0 ⇒ polylogarithmic shape; the paper expects memory/LSN well below pure")
	return rep
}

// StateSize reproduces experiment E8: per-node state of linearization with
// memory vs LSN — peak degree during the run and edges at the fixed point.
func (h Harness) StateSize(sizes []int, seeds int) Report {
	rep := Report{ID: "E8", Title: "Per-node state: memory vs LSN"}
	tab := metrics.NewTable("variant", "n", "peak degree", "final edges", "edges/node")
	for _, v := range []linearize.Variant{linearize.Memory, linearize.LSN} {
		for _, n := range sizes {
			runs := h.linRuns(seeds, linearize.Config{Variant: v, Scheduler: sim.Synchronous},
				func(s int) *graph.Graph { return topoOrDie(graph.TopoER, n, int64(77*n+s)) })
			ps := over(runs, func(st linearize.Stats) float64 { return float64(st.PeakDegree) })
			fs := over(runs, func(st linearize.Stats) float64 { return float64(st.FinalEdges) })
			tab.AddRow(v.String(), n, ps.Mean, fs.Mean, fs.Mean/float64(n))
		}
	}
	rep.Table = tab
	rep.Notes = append(rep.Notes,
		"LSN bounds per-node state to O(log |space|) shortcut slots; memory does not")
	return rep
}

// SelfStabilization reproduces experiment E9 (abstract half): converge,
// perturb the line (cross chords + cut an edge, connectivity preserved),
// and measure recovery rounds — no restart, no flooding.
func (h Harness) SelfStabilization(n, perturbations, seeds int) Report {
	rep := Report{ID: "E9", Title: "Self-stabilization: recovery after perturbation"}
	tab := metrics.NewTable("phase", "rounds mean", "rounds max", "recovered")
	var boot, recovery []linearize.Stats
	for s := 0; s < seeds; s++ {
		g := topoOrDie(graph.TopoER, n, int64(13*n+s))
		stats, line := h.runLin(g, linearize.Config{
			Variant: linearize.LSN, Scheduler: sim.Synchronous, Seed: int64(s),
		})
		boot = append(boot, stats)
		nodes := line.Nodes()
		perturbed := line.Clone()
		for p := 0; p < perturbations; p++ {
			a := nodes[(s+3*p)%len(nodes)]
			b := nodes[(len(nodes)-1-(5*p+s))%len(nodes)]
			perturbed.AddEdge(a, b)
		}
		// Cut one line edge; the chords keep the graph connected.
		if len(nodes) > 6 && perturbed.Degree(nodes[4]) > 1 {
			perturbed.RemoveEdge(nodes[4], nodes[5])
		}
		if !perturbed.Connected() {
			continue // pathological perturbation; skip
		}
		stats2, _ := h.runLin(perturbed, linearize.Config{
			Variant: linearize.LSN, Scheduler: sim.Synchronous, Seed: int64(s + 1),
		})
		recovery = append(recovery, stats2)
	}
	bs, rs := over(boot, rounds), over(recovery, rounds)
	tab.AddRow("bootstrap", bs.Mean, int(bs.Max), fmt.Sprintf("%d/%d", seeds, seeds))
	tab.AddRow("recovery", rs.Mean, int(rs.Max), share(recovery, converged))
	rep.Table = tab
	rep.Notes = append(rep.Notes,
		"recovery starts from the damaged state as-is: self-stabilization needs no reset")
	return rep
}

// SchedulerAblation compares the synchronous round model against the random
// sequential daemon (a self-stabilizing algorithm must converge under any
// fair scheduler; DESIGN.md ablation).
func (h Harness) SchedulerAblation(n, seeds int) Report {
	rep := Report{ID: "A1", Title: "Scheduler ablation: synchronous vs random sequential"}
	tab := metrics.NewTable("variant", "scheduler", "rounds mean", "converged")
	for _, v := range linearize.Variants() {
		for _, sched := range []sim.Scheduler{sim.Synchronous, sim.RandomSequential} {
			runs := h.linRuns(seeds, linearize.Config{Variant: v, Scheduler: sched},
				func(s int) *graph.Graph { return topoOrDie(graph.TopoER, n, int64(7*n+s)) })
			tab.AddRow(v.String(), sched.String(), over(runs, rounds).Mean, share(runs, converged))
		}
	}
	rep.Table = tab
	return rep
}
