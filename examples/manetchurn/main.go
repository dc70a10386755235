// Manetchurn: a mobile ad-hoc network under churn. Nodes fail after the
// ring has converged; because linearization is self-stabilizing, the
// survivors re-linearize around the gaps with no global restart and no
// flooding — the property §5 highlights as the payoff of grounding the
// bootstrap in self-stabilization theory.
//
//	go run ./examples/manetchurn
package main

import (
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/ssr"
)

func main() {
	const n, seed = 40, 11
	g, err := graph.Generate(graph.TopoRegular, n, graph.RandomIDs, seed)
	if err != nil {
		log.Fatal(err)
	}
	net := phys.NewNetwork(sim.NewEngine(seed), g)

	cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Unbounded})
	at, ok := cl.RunUntilConsistent(node.Budget(n))
	if !ok {
		log.Fatalf("initial bootstrap did not converge by t=%d", at)
	}
	fmt.Printf("initial ring consistent at t=%d (%d messages)\n", at, net.Counters().Total())

	// Churn: kill every 7th interior node, provided the physical network
	// stays connected. Each victim leaves through LeaveGraceful: every
	// survivor at once drops each route that crosses it, the outcome of
	// failure detection (SSR detects dead virtual links by failed sends).
	nodes := cl.IDs()
	killed := 0
	for i := 1; i < len(nodes)-1; i += 7 {
		victim := nodes[i]
		after := net.Topology().Clone()
		after.RemoveNode(victim)
		if !after.Connected() {
			continue
		}
		cl.LeaveGraceful(victim)
		killed++
		fmt.Printf("  node %s failed\n", victim)
	}
	fmt.Printf("churn: %d nodes down; survivors re-linearize ...\n", killed)

	rec, ok := cl.RunUntilConsistent(at + node.Budget(n))
	if !ok {
		log.Fatalf("survivors did not re-converge (t=%d)", rec)
	}
	fmt.Printf("ring consistent again at t=%d — no flood, no restart\n", rec)
	fmt.Printf("total messages including recovery: %d\n", net.Counters().Total())
}
