// Quickstart: build a small ad-hoc network, bootstrap SSR's virtual ring
// with linearization (no flooding!), and route a few packets greedily.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/ssr"
)

func main() {
	// A 48-node random network with uniformly random 64-bit addresses —
	// SSR never assumes addresses match the topology (§1).
	const n, seed = 48, 2007 // the paper's year; any seed works
	g, err := graph.Generate(graph.TopoER, n, graph.RandomIDs, seed)
	if err != nil {
		log.Fatal(err)
	}
	net := phys.NewNetwork(sim.NewEngine(seed), g)

	fmt.Println("bootstrapping the virtual ring with linearization ...")
	cl := ssr.NewCluster(net, ssr.Config{
		CloseRing:      true, // §4 discovery messages close the line into the ring
		BothDirections: true, // redundant counter-clockwise discovery
	})
	at, ok := cl.RunUntilConsistent(node.Budget(n))
	if !ok {
		log.Fatalf("bootstrap did not converge by t=%d", at)
	}
	fmt.Printf("globally consistent at t=%d after %d messages (zero floods)\n\n",
		at, net.Counters().Total())

	// Routing is now guaranteed for every source/destination pair (§1).
	cl.Stop() // freeze the converged state
	nodes := cl.IDs()
	pairs := [][2]int{{0, len(nodes) - 1}, {len(nodes) / 2, 3}, {5, len(nodes) / 3}}
	for _, p := range pairs {
		src, dst := nodes[p[0]], nodes[p[1]]
		r := cl.RouteData(src, dst, 8192)
		fmt.Printf("route %20s -> %-20s delivered=%v hops=%d stretch=%.2f\n",
			src, dst, r.Delivered, r.Hops, r.Stretch())
	}
}
