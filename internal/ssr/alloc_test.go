package ssr

import (
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/rel"
	"repro/internal/sim"
)

// bootAllocBudgetMB bounds what one SSR bootstrap of the layered
// benchmark's boot-ssr-route shape allocates: 9.1 MB by this test's count
// when every courier Send boxed a fresh packet and cloned its route, 5.2 MB
// since the packets come from the network's free list and a notification
// composes its route into scratch, 5.1 MB since Start sizes revNbrs from
// the physical degree, 4.4 MB since introductions ride in the packet's Aux
// instead of boxed payloads. The budget is that figure plus 0.4 MB.
const bootAllocBudgetMB = 4.8

// lossyBootAllocBudgetMB bounds the same for the boot-lossy shape, SSR over
// rel at 15 % frame loss: 5.8 MB when rel boxed every Frame and Ack, 4.2 MB
// since their wrappers come from free lists. The budget is that figure
// plus 0.4 MB.
const lossyBootAllocBudgetMB = 4.6

// bootAllocMB builds a network on g with opts, with rel over it when
// reliable, and bootstraps SSR on it as the layered benchmark does (Bounded
// caches, ring closure both ways, seed 1). It returns the bytes allocated
// from the network's construction to the first consistent poll. It must
// not run beside other tests, since TotalAlloc counts every goroutine of
// the process.
func bootAllocMB(t *testing.T, g *graph.Graph, reliable bool, opts ...phys.Option) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's allocations count toward TotalAlloc")
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	raw := phys.NewNetwork(sim.NewEngine(1), g, opts...)
	var net phys.Transport = raw
	if reliable {
		net = rel.New(raw, rel.DefaultConfig())
	}
	c := NewCluster(net, Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
	at, ok := c.RunUntilConsistent(node.Budget(g.NumNodes()))
	runtime.ReadMemStats(&m1)
	if !ok {
		t.Fatalf("not consistent by t=%d: %s", at, c.LineReport())
	}
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.Logf("one bootstrap allocates %.2f MB (%d mallocs, consistent at t=%d)", mb, m1.Mallocs-m0.Mallocs, at)
	return mb
}

// TestBootstrapAllocations reads the bytes one SSR bootstrap allocates on
// unitdisk n=192, seed 1, over the raw network.
func TestBootstrapAllocations(t *testing.T) {
	g, err := graph.Generate(graph.TopoUnitDisk, 192, graph.RandomIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mb := bootAllocMB(t, g, false); mb > bootAllocBudgetMB {
		t.Fatalf("one bootstrap allocates %.2f MB, above the %.2f MB budget", mb, bootAllocBudgetMB)
	}
}

// TestLossyBootstrapAllocations reads the bytes one SSR bootstrap of the
// boot-lossy shape allocates: regular n=96, seed 1, rel with its default
// tuning over 15 % frame loss.
func TestLossyBootstrapAllocations(t *testing.T) {
	g, err := graph.Generate(graph.TopoRegular, 96, graph.RandomIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mb := bootAllocMB(t, g, true, phys.WithLoss(0.15)); mb > lossyBootAllocBudgetMB {
		t.Fatalf("one lossy bootstrap allocates %.2f MB, above the %.2f MB budget", mb, lossyBootAllocBudgetMB)
	}
}
