// Sensornet: SSR's motivating scenario — a wireless sensor/actuator network
// (Fuhrmann, SECON 2005). Nodes are placed on the unit square and linked by
// radio range (unit-disk graph); the virtual ring is bootstrapped with
// linearization using *bounded* route caches (the LSN shortcut structure),
// and a sink node then collects a reading from every sensor via greedy
// source routing.
//
//	go run ./examples/sensornet
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
	const n, seed = 64, 5
	g, err := graph.Generate(graph.TopoUnitDisk, n, graph.RandomIDs, seed)
	if err != nil {
		log.Fatal(err)
	}
	net := phys.NewNetwork(sim.NewEngine(seed), g,
		phys.WithLatency(phys.ConstantLatency(2))) // slower radio links

	fmt.Println("sensor field: 64 radios, unit-disk links, bounded caches")
	cl := ssr.NewCluster(net, ssr.Config{
		CacheMode:      cache.Bounded, // O(log) state per sensor
		CloseRing:      true,
		BothDirections: true,
	})
	at, ok := cl.RunUntilConsistent(node.Budget(n))
	if !ok {
		log.Fatalf("bootstrap did not converge by t=%d", at)
	}
	fmt.Printf("ring consistent at t=%d, %d messages\n", at, net.Counters().Total())

	// Per-node state stays logarithmic — this is what makes SSR viable on
	// constrained sensor hardware (and what LSN guarantees, §2).
	maxEntries := 0
	for _, nd := range cl.Nodes {
		maxEntries = max(maxEntries, nd.Cache().Len())
	}
	fmt.Printf("largest route cache: %d entries (bound: 128 interval slots)\n\n", maxEntries)

	// The sink (lowest address) polls every sensor.
	cl.Stop()
	nodes := cl.IDs()
	sink := nodes[0]
	delivered, totalHops := 0, 0
	for _, sensor := range nodes[1:] {
		if r := cl.RouteData(sink, sensor, 8192); r.Delivered {
			delivered++
			totalHops += r.Hops
		}
	}
	fmt.Printf("sink polled %d/%d sensors, mean route length %.1f hops\n",
		delivered, len(nodes)-1, float64(totalHops)/float64(delivered))
}
