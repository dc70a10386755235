package ssr

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
)

// TestCloseRingSweep is SSR's third of `make sweep`: `unitdisk` n=192
// inputs on generator and engine seeds 2²⁰+1 … 2²⁰+400 (40 with -short or
// -race), the layered benchmark's boot-ssr-route inputs: Bounded caches,
// CloseRing and BothDirections, deadline 4096. It prints the stall count
// and names the seeds (offsets from 2²⁰) that stall; more than maxStalls
// fails.
//
// It also folds each input's edge events up to the first tick, that is
// E_v right after Start, and names the seeds whose E_v starts in more than
// one component although the physical graph is connected: Bounded seeding
// keeps one physical neighbour per interval slot, and the slot contest can
// cut a node off. A stall on an input whose E_v started connected fails:
// that would be a stall family the split does not explain.
func TestCloseRingSweep(t *testing.T) {
	const n, deadline, maxStalls = 192, 4096, 2
	seeds := 400
	if testing.Short() || raceEnabled {
		seeds = 40
	}
	var stalled, split []int
	for s := 1; s <= seeds; s++ {
		seed := int64(1)<<20 + int64(s)
		g, err := graph.Generate(graph.TopoUnitDisk, n, graph.RandomIDs, seed)
		if err != nil {
			t.Fatal(err)
		}
		net := phys.NewNetwork(sim.NewEngine(seed), g)
		fold := newEdgeFold()
		net.SetTracer(fold)
		c := NewCluster(net, Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
		net.SetTracer(nil) // Start's seeding is done; no node has ticked yet
		line := c.IDs()
		comps := fold.graph(line).Components()
		startSplit := len(comps) > 1 && g.Connected()
		if startSplit {
			split = append(split, s)
			slices.SortFunc(comps, func(a, b []ids.ID) int { return len(a) - len(b) })
			var cut []string // line positions, #0 the minimum
			for _, comp := range comps[:len(comps)-1] {
				for _, v := range comp {
					i, _ := slices.BinarySearch(line, v)
					cut = append(cut, fmt.Sprintf("#%d", i))
				}
			}
			t.Logf("seed 2^20 + %d: E_v right after Start cuts off %v", s, cut)
		}
		if _, ok := c.RunUntilConsistent(deadline); !ok {
			stalled = append(stalled, s)
			if !startSplit {
				t.Errorf("seed 2^20 + %d stalls although its E_v started connected", s)
			}
		}
		c.Stop()
	}
	t.Logf("sweep: %d seeds, %d stalls %v, E_v split right after Start %v", seeds, len(stalled), stalled, split)
	if len(stalled) > maxStalls {
		t.Errorf("%d stalls, want at most %d: seeds 2^20 + %v", len(stalled), maxStalls, stalled)
	}
}
