package vrr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sim"
)

// referenceConsistent is the oracle as it stood before the line walk: the
// map-built virtual graph must embed the sorted line, every member must
// hold both its line neighbours in its vset, and with ring closure the
// extremes must hold each other as wrap partners.
func referenceConsistent(c *Cluster) bool {
	if len(c.Nodes) < 2 {
		return true
	}
	if !graph.NewCSR(c.VirtualGraph()).SupersetOfLine() {
		return false
	}
	nodes := c.IDs()
	for i, v := range nodes {
		if i > 0 && !c.Nodes[v].vset.Has(nodes[i-1]) {
			return false
		}
		if i < len(nodes)-1 && !c.Nodes[v].vset.Has(nodes[i+1]) {
			return false
		}
	}
	if !c.cfg.CloseRing || len(nodes) < 3 {
		return true
	}
	return node.AtExtremes(&c.Nodes[nodes[0]].wrap, &c.Nodes[nodes[len(nodes)-1]].wrap)
}

// TestOracleMatchesReference: the line walk equals the reference at every
// 8-tick poll of bootstraps on three topology families, and every vset
// entry is a member — the fact that lets the walk drop the reference's
// virtual-graph pass.
func TestOracleMatchesReference(t *testing.T) {
	converged := 0
	for _, topo := range []graph.Topology{graph.TopoRegular, graph.TopoUnitDisk, graph.TopoER} {
		for _, n := range []int{2, 3, 8, 32, 64} {
			for seed := int64(1); seed <= 20; seed++ {
				g, err := graph.Generate(topo, n, graph.RandomIDs, seed)
				if err != nil {
					t.Fatal(err)
				}
				c := NewCluster(newNet(t, g, seed), Config{CloseRing: true})
				poll := func() bool {
					for v, m := range c.Nodes {
						for u := range m.vset {
							if _, ok := c.Nodes[u]; !ok {
								t.Fatalf("%s n=%d seed %d: %v holds non-member %v in its vset", topo, n, seed, v, u)
							}
						}
					}
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
// closed sorted ring, and on one whose last member has lost its line
// predecessor, so the walk fails at its very last check.
func BenchmarkConsistent(b *testing.B) {
	for _, n := range []int{64, 1024} {
		nodes := graph.MakeIDs(n, graph.RandomIDs, rand.New(rand.NewSource(1)))
		ids.SortAsc(nodes)
		for _, state := range []string{"ring", "broken-last"} {
			c := NewCluster(phys.NewNetwork(sim.NewEngine(1), graph.Ring(nodes)), Config{CloseRing: true})
			for i, v := range nodes {
				c.Nodes[v].link(nodes[(i+n-1)%n], "bench")
				c.Nodes[v].link(nodes[(i+1)%n], "bench")
			}
			c.Nodes[nodes[0]].adoptWrap(ids.Left, nodes[n-1])
			c.Nodes[nodes[n-1]].adoptWrap(ids.Right, nodes[0])
			if state == "broken-last" {
				c.Nodes[nodes[n-1]].vset.Remove(nodes[n-2])
			}
			want := state == "ring"
			b.Run(fmt.Sprintf("vrr/n%d/%s", n, state), func(b *testing.B) {
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
