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
// and names the seeds (offsets from 2²⁰) that stall; any stall fails.
//
// It also folds each input's edge events. Right after Start, E_v can be in
// more than one component although the physical graph is connected:
// Bounded seeding keeps one physical neighbour per interval slot, and the
// slot contest can cut a node off (DESIGN §5 finding 8); those seeds are
// logged. Each node's first tick delegates the rejected edges to the slot
// holders, so at t = 2·tickInterval E_v must be connected on every input
// whose physical graph is.
func TestCloseRingSweep(t *testing.T) {
	const n, deadline, maxStalls = 192, 4096, 0
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
		line := c.IDs()
		if comps := fold.graph(line).Components(); len(comps) > 1 && g.Connected() {
			split = append(split, s)
			t.Logf("seed 2^20 + %d: E_v right after Start cuts off %v", s, cutOff(line, comps))
		}
		net.Engine().After(2*tickInterval, func() {
			if comps := fold.graph(line).Components(); len(comps) > 1 && g.Connected() {
				t.Errorf("seed 2^20 + %d: E_v at t=%d cuts off %v", s, net.Engine().Now(), cutOff(line, comps))
			}
			net.SetTracer(nil)
		})
		if _, ok := c.RunUntilConsistent(deadline); !ok {
			stalled = append(stalled, s)
		}
		c.Stop()
	}
	t.Logf("sweep: %d seeds, %d stalls %v, E_v split right after Start %v", seeds, len(stalled), stalled, split)
	if len(stalled) > maxStalls {
		t.Errorf("%d stalls, want at most %d: seeds 2^20 + %v", len(stalled), maxStalls, stalled)
	}
}

// cutOff names the members of every component but the largest by line
// position, #0 the minimum.
func cutOff(line []ids.ID, comps [][]ids.ID) []string {
	slices.SortFunc(comps, func(a, b []ids.ID) int { return len(a) - len(b) })
	var cut []string
	for _, comp := range comps[:len(comps)-1] {
		for _, v := range comp {
			i, _ := slices.BinarySearch(line, v)
			cut = append(cut, fmt.Sprintf("#%d", i))
		}
	}
	return cut
}

// TestSeedingRejectIsDelegated is finding 8 on four nodes, the physical
// path b–a–c–d with a < d < b < c on the line: a keeps b over c and c keeps
// d over a, each in one interval slot, so Start's E_v is {a,b} and {c,d}
// and the physical edge a–c is in neither cache. The first ticks hand c to
// b (a's slot holder) and a to d (c's), which joins the two halves.
func TestSeedingRejectIsDelegated(t *testing.T) {
	const a, d, b, c = 100, 120, 140, 160 // a–b, a–c, c–a and c–d all 32 ≤ dist < 64
	topo := graph.New()
	topo.AddEdge(b, a)
	topo.AddEdge(a, c)
	topo.AddEdge(c, d)
	net := newNet(t, topo, 1)
	fold := newEdgeFold()
	net.SetTracer(fold)
	cl := NewCluster(net, Config{CacheMode: cache.Bounded, CloseRing: true})
	line := cl.IDs()
	if comps := fold.graph(line).Components(); len(comps) != 2 {
		t.Fatalf("E_v right after Start has components %v, want {a,b} and {c,d}", comps)
	}
	eng := net.Engine()
	at := 2 * tickInterval
	eng.After(at, func() {}) // sync point: RunUntil stops at the last fired event
	eng.RunUntil(at, nil)
	if comps := fold.graph(line).Components(); len(comps) != 1 {
		t.Fatalf("E_v at t=%d has components %v, want one", eng.Now(), comps)
	}
	if err := fold.check(cl); err != nil {
		t.Fatal(err)
	}
	if now, ok := cl.RunUntilConsistent(4096); !ok {
		t.Fatalf("not consistent by t=%d: %s", now, cl.LineReport())
	}
}
