// VRR: the same linearized bootstrap applied to Virtual Ring Routing
// (footnote 1 of §4): virtual edges are routing-table state along physical
// paths instead of source routes, the setup messages double as neighbor
// notifications, and no representative/flooding mechanism is needed.
//
//	go run ./examples/vrr
package main

import (
	"fmt"
	"log"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vrr"
)

func main() {
	const n, seed = 32, 23
	g, err := graph.Generate(graph.TopoER, n, graph.RandomIDs, seed)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	net := phys.NewNetwork(eng, g)

	fmt.Println("bootstrapping linearized VRR (path state, hello beacons, no representative) ...")
	cl := vrr.NewCluster(net, vrr.Config{CloseRing: true})
	at, ok := cl.RunUntilConsistent(node.Budget(n))
	if !ok {
		log.Fatalf("VRR bootstrap did not converge by t=%d", at)
	}
	fmt.Printf("virtual ring consistent at t=%d after %d frames\n", at, net.Counters().Total())

	// Router state: path-table entries per node (§5's future-work metric).
	sum := metrics.Summarize(metrics.Ints(cl.StateSummary()))
	fmt.Printf("path-table entries per node: mean=%.1f p90=%.0f max=%.0f\n",
		sum.Mean, sum.P90, sum.Max)

	// Route packets across the identifier space over the installed path
	// state: each hop forwards along the path whose far endpoint is
	// virtually closest to the destination.
	cl.Stop()
	nodes := cl.IDs()
	for _, pair := range [][2]int{{1, len(nodes) - 2}, {len(nodes) - 3, 0}, {2, len(nodes) / 2}} {
		src, dst := nodes[pair[0]], nodes[pair[1]]
		var got *vrr.Delivery
		cl.Nodes[dst].OnDeliver = func(d vrr.Delivery) {
			if d.Origin == src {
				got = &d
			}
		}
		if !cl.Nodes[src].SendData(dst, "reading") {
			fmt.Printf("route %20s -> %-20s: no greedy candidate\n", src, dst)
			continue
		}
		eng.RunUntil(eng.Now()+5000, func() bool { return got != nil })
		if got != nil {
			fmt.Printf("route %20s -> %-20s delivered in %d physical hops\n", src, dst, got.Hops)
		} else {
			fmt.Printf("route %20s -> %-20s LOST\n", src, dst)
		}
	}
}
