package isprp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vring"
)

// succMap snapshots the members' successor pointers: the input of the
// reference oracle and of the Fig. 1/2 classifier.
func succMap(c *Cluster) vring.SuccMap {
	s := make(vring.SuccMap, len(c.Nodes))
	for v, n := range c.Nodes {
		if succ, ok := n.Successor(); ok {
			s[v] = succ
		}
	}
	return s
}

// checkOracle fails t unless the cluster's oracle equals the reference,
// SuccMap.GloballyConsistent over the members, and returns the verdict.
func checkOracle(t *testing.T, c *Cluster, what string) bool {
	t.Helper()
	got, want := c.Consistent(), succMap(c).GloballyConsistent(c.IDs())
	if got != want {
		t.Fatalf("%s at t=%d: Consistent() = %v, reference %v (succ %v)",
			what, c.Net.Engine().Now(), got, want, succMap(c))
	}
	return got
}

// TestOracleMatchesReference: the one-walk oracle equals the SuccMap
// reference at every 8-tick poll of flooding bootstraps on three topology
// families, and on hand-built states: Figs. 1 and 2, a partition into
// sorted rings, a missing successor, a successor outside the cluster and a
// two-node ring.
func TestOracleMatchesReference(t *testing.T) {
	converged := 0
	for _, topo := range []graph.Topology{graph.TopoRegular, graph.TopoUnitDisk, graph.TopoER} {
		for _, n := range []int{2, 3, 8, 32, 64} {
			for seed := int64(1); seed <= 20; seed++ {
				g, err := graph.Generate(topo, n, graph.RandomIDs, seed)
				if err != nil {
					t.Fatal(err)
				}
				c := NewCluster(newNet(t, g, seed), Config{EnableFlood: true})
				what := fmt.Sprintf("%s n=%d seed %d", topo, n, seed)
				if _, ok := c.Net.Engine().RunUntilHolds(20000, 8, func() bool { return checkOracle(t, c, what) }); ok {
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

	// The hand-built states' physical links are their own virtual edges:
	// Start adopts a physical neighbour as successor when it beats the
	// preset one, and the last member of the broken rings has none.
	fig := vring.FigureNodes
	last := fig[len(fig)-1]
	ring := vring.Ring(fig)
	missing := ring.Clone()
	delete(missing, last) // the wrap pair max → min is the one left out
	outside := ring.Clone()
	outside[last] = last + 1
	lastAlone := graph.Line(fig[:len(fig)-1])
	lastAlone.AddNode(last)
	separate := vring.SeparateRingsExample()
	bridged := separate.ToGraph()
	bridged.AddEdge(18, 21)
	partitioned := vring.PartitionedState(fig, 2)
	pair := []ids.ID{fig[0], fig[1]}
	for _, tc := range []struct {
		name string
		succ vring.SuccMap
		topo *graph.Graph
		want bool
	}{
		{"loopy (Fig. 1)", vring.LoopyExample(), vring.LoopyExample().ToGraph(), false},
		{"separate rings (Fig. 2)", separate, bridged, false},
		{"partitioned", partitioned, partitioned.ToGraph(), false},
		{"missing successor", missing, lastAlone, false},
		{"successor not a member", outside, lastAlone, false},
		{"sorted ring", ring, graph.Ring(fig), true},
		{"two-node ring", vring.Ring(pair), graph.Line(pair), true},
	} {
		c := NewClusterFrom(newNet(t, tc.topo, 3), Config{EnableFlood: true}, tc.succ)
		if got := checkOracle(t, c, tc.name); got != tc.want {
			t.Errorf("%s: Consistent() = %v, want %v", tc.name, got, tc.want)
		}
		c.Net.Engine().RunUntilHolds(20000, 8, func() bool { return checkOracle(t, c, tc.name) })
		c.Stop()
	}
}

// BenchmarkConsistent times one poll of the oracle on a cluster holding the
// sorted ring, and on one whose last member has no successor (nor a
// physical link), so the walk runs to the wrap pair before it fails.
func BenchmarkConsistent(b *testing.B) {
	for _, n := range []int{64, 1024} {
		nodes := graph.MakeIDs(n, graph.RandomIDs, rand.New(rand.NewSource(1)))
		ids.SortAsc(nodes)
		for _, state := range []string{"ring", "broken-last"} {
			succ, topo := vring.Ring(nodes), graph.Ring(nodes)
			if state == "broken-last" {
				delete(succ, nodes[n-1])
				topo = graph.Line(nodes[:n-1])
				topo.AddNode(nodes[n-1])
			}
			net := phys.NewNetwork(sim.NewEngine(1), topo)
			c := NewClusterFrom(net, Config{}, succ)
			want := state == "ring"
			b.Run(fmt.Sprintf("isprp/n%d/%s", n, state), func(b *testing.B) {
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
