package ssr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/sroute"
)

// referenceConsistent is the oracle as it stood before the line walk: a
// scan of the sorted members for cached routes to both line neighbours,
// then, with ring closure, the extremes' wrap partners.
func referenceConsistent(c *Cluster) bool {
	if len(c.Nodes) < 2 {
		return true
	}
	nodes := c.IDs()
	for i, v := range nodes {
		n := c.Nodes[v]
		if i > 0 && n.Cache().Route(nodes[i-1]) == nil {
			return false
		}
		if i < len(nodes)-1 && n.Cache().Route(nodes[i+1]) == nil {
			return false
		}
	}
	if !c.cfg.CloseRing || len(c.Nodes) < 3 {
		return true
	}
	return node.AtExtremes(&c.Nodes[nodes[0]].wrap, &c.Nodes[nodes[len(nodes)-1]].wrap)
}

// benchConfig is the configuration the layered benchmark boots SSR with.
var benchConfig = Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true}

// TestOracleMatchesReference: the line walk equals the reference at every
// 8-tick poll of bootstraps on three topology families.
func TestOracleMatchesReference(t *testing.T) {
	converged := 0
	for _, topo := range []graph.Topology{graph.TopoRegular, graph.TopoUnitDisk, graph.TopoER} {
		for _, n := range []int{2, 3, 8, 32, 64} {
			for seed := int64(1); seed <= 20; seed++ {
				g, err := graph.Generate(topo, n, graph.RandomIDs, seed)
				if err != nil {
					t.Fatal(err)
				}
				c := NewCluster(newNet(t, g, seed), benchConfig)
				poll := func() bool {
					got, want := c.Consistent(), referenceConsistent(c)
					if got != want {
						t.Fatalf("%s n=%d seed %d at t=%d: Consistent() = %v, reference %v",
							topo, n, seed, c.Net.Engine().Now(), got, want)
					}
					return got
				}
				if _, ok := c.Net.Engine().RunUntilHolds(1024, 8, poll); ok {
					converged++
				}
				c.Stop()
			}
		}
	}
	t.Logf("%d of 300 bootstraps converged", converged)
	if converged == 0 {
		t.Error("no bootstrap converged: the true verdict went unchecked")
	}
}

// BenchmarkConsistent times one poll of the oracle on a cluster holding the
// closed sorted ring (the physical ring seeds every line edge), and on one
// whose last member has lost its route to its line predecessor, so the walk
// fails at its very last check.
func BenchmarkConsistent(b *testing.B) {
	for _, n := range []int{64, 1024} {
		nodes := graph.MakeIDs(n, graph.RandomIDs, rand.New(rand.NewSource(1)))
		ids.SortAsc(nodes)
		for _, state := range []string{"ring", "broken-last"} {
			c := NewCluster(phys.NewNetwork(sim.NewEngine(1), graph.Ring(nodes)), benchConfig)
			lo, hi := nodes[0], nodes[n-1]
			c.Nodes[lo].adoptWrap(ids.Left, hi, sroute.Route{lo, hi})
			c.Nodes[hi].adoptWrap(ids.Right, lo, sroute.Route{hi, lo})
			if state == "broken-last" {
				c.Nodes[hi].Cache().Remove(nodes[n-2])
			}
			want := state == "ring"
			b.Run(fmt.Sprintf("ssr/n%d/%s", n, state), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if c.Consistent() != want {
						b.Fatal("wrong verdict")
					}
				}
			})
		}
	}
}
