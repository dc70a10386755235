package ssr

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/phys"
	"repro/internal/sim"
)

// TestCloseRingSweep is SSR's third of `make sweep`: `unitdisk` n=192
// inputs on generator and engine seeds 2²⁰+1 … 2²⁰+400 (40 with -short or
// -race), the layered benchmark's boot-ssr-route inputs: Bounded caches,
// CloseRing and BothDirections, deadline 4096. It prints the stall count
// and names the seeds (offsets from 2²⁰) that stall; more than maxStalls
// fails.
func TestCloseRingSweep(t *testing.T) {
	const n, deadline, maxStalls = 192, 4096, 2
	seeds := 400
	if testing.Short() || raceEnabled {
		seeds = 40
	}
	var stalled []int
	for s := 1; s <= seeds; s++ {
		seed := int64(1)<<20 + int64(s)
		g, err := graph.Generate(graph.TopoUnitDisk, n, graph.RandomIDs, seed)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCluster(phys.NewNetwork(sim.NewEngine(seed), g),
			Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
		if _, ok := c.RunUntilConsistent(deadline); !ok {
			stalled = append(stalled, s)
		}
		c.Stop()
	}
	t.Logf("sweep: %d seeds, %d stalls %v", seeds, len(stalled), stalled)
	if len(stalled) > maxStalls {
		t.Errorf("%d stalls, want at most %d: seeds 2^20 + %v", len(stalled), maxStalls, stalled)
	}
}
