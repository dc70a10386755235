package ssr

import (
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
)

// bootAllocBudgetMB bounds what one SSR bootstrap of the layered
// benchmark's boot-ssr-route shape allocates: 9.1 MB by this test's count
// when every courier Send boxed a fresh packet and cloned its route, 5.2 MB
// since the packets come from the network's free list and a notification
// composes its route into scratch. The budget is that figure plus 0.4 MB.
const bootAllocBudgetMB = 5.6

// TestBootstrapAllocations reads the bytes one SSR bootstrap allocates on
// unitdisk n=192, seed 1, Bounded caches with ring closure both ways, from
// the network's construction to the first consistent poll. It must not run
// beside other tests, since TotalAlloc counts every goroutine of the
// process.
func TestBootstrapAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations count toward TotalAlloc")
	}
	g, err := graph.Generate(graph.TopoUnitDisk, 192, graph.RandomIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	net := phys.NewNetwork(sim.NewEngine(1), g)
	c := NewCluster(net, Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
	at, ok := c.RunUntilConsistent(node.Budget(192))
	runtime.ReadMemStats(&m1)
	if !ok {
		t.Fatalf("not consistent by t=%d: %s", at, c.LineReport())
	}
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.Logf("one bootstrap allocates %.2f MB (%d mallocs, consistent at t=%d)", mb, m1.Mallocs-m0.Mallocs, at)
	if mb > bootAllocBudgetMB {
		t.Fatalf("one bootstrap allocates %.2f MB, above the %.2f MB budget", mb, bootAllocBudgetMB)
	}
}
