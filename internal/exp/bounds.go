package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// DegreeSweep probes the §5 future-work question of "more precise bounds on
// … convergence": how do convergence rounds depend on the initial average
// degree at fixed n? Random d-regular graphs, d swept.
func DegreeSweep(n int, degrees []int, seeds int) Report {
	rep := Report{ID: "B1", Title: fmt.Sprintf("Convergence vs initial degree (random regular, n=%d)", n)}
	tab := metrics.NewTable("degree", "variant", "rounds mean", "rounds max", "edges added mean")
	for _, d := range degrees {
		for _, v := range []linearize.Variant{linearize.Memory, linearize.LSN} {
			runs := linRuns(seeds, linearize.Config{Variant: v, Scheduler: sim.Synchronous}, func(s int) *graph.Graph {
				r := rand.New(rand.NewSource(int64(1000*d + s)))
				return graph.RandomRegular(graph.MakeIDs(n, graph.RandomIDs, r), d, r)
			})
			rs := over(runs, rounds)
			as := over(runs, func(st linearize.Stats) float64 { return float64(st.EdgesAdded) })
			tab.AddRow(d, v.String(), rs.Mean, int(rs.Max), as.Mean)
		}
	}
	rep.Table = tab
	rep.Notes = append(rep.Notes,
		"denser starts carry more initial shortcut information: rounds should fall, message work rise")
	return rep
}

// DiameterSweep probes convergence against the physical diameter at fixed
// n: the line (diameter n-1), the grid (≈2√n), an expander-ish random
// regular graph (O(log n)) and the star (2). Information must travel the
// diameter at least once, so diameter is the natural lower-bound axis.
func DiameterSweep(n int, seeds int) Report {
	rep := Report{ID: "B2", Title: fmt.Sprintf("Convergence vs topology diameter (n=%d)", n)}
	tab := metrics.NewTable("topology", "diameter", "variant", "rounds mean")
	type topoCase struct {
		name string
		make func(r *rand.Rand) *graph.Graph
	}
	cases := []topoCase{
		// A path visiting the nodes in random order: maximal diameter and a
		// maximally unsorted start (the sorted line would already be the
		// goal state).
		{"shuffled-path", func(r *rand.Rand) *graph.Graph {
			nodes := graph.MakeIDs(n, graph.RandomIDs, r)
			r.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			g := graph.NewWithNodes(nodes...)
			for i := 0; i+1 < len(nodes); i++ {
				g.AddEdge(nodes[i], nodes[i+1])
			}
			return g
		}},
		{"grid", func(r *rand.Rand) *graph.Graph {
			side := 1
			for side*side < n {
				side++
			}
			g, err := graph.Grid(graph.MakeIDs(side*side, graph.RandomIDs, r), side, side)
			if err != nil {
				panic(err)
			}
			return g
		}},
		{"regular4", func(r *rand.Rand) *graph.Graph {
			return graph.RandomRegular(graph.MakeIDs(n, graph.RandomIDs, r), 4, r)
		}},
		{"star", func(r *rand.Rand) *graph.Graph {
			return graph.Star(graph.MakeIDs(n, graph.RandomIDs, r))
		}},
	}
	for _, tc := range cases {
		for _, v := range []linearize.Variant{linearize.Memory, linearize.LSN} {
			diam := -1
			runs := linRuns(seeds, linearize.Config{Variant: v, Scheduler: sim.Synchronous}, func(s int) *graph.Graph {
				g := tc.make(rand.New(rand.NewSource(int64(31*n + s))))
				if s == 0 {
					diam = g.Diameter()
				}
				return g
			})
			tab.AddRow(tc.name, diam, v.String(), over(runs, rounds).Mean)
		}
	}
	rep.Table = tab
	rep.Notes = append(rep.Notes,
		"high-diameter unsorted starts dominate convergence time: knowledge initially spreads one hop per round")
	return rep
}
