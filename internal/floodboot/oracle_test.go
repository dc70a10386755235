package floodboot

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vring"
)

// TestOracleMatchesReference: the one-walk oracle equals the reference,
// SuccMap.GloballyConsistent over the members' locally computed
// successors, at every 8-tick poll of bootstraps on three topology
// families.
func TestOracleMatchesReference(t *testing.T) {
	converged := 0
	for _, topo := range []graph.Topology{graph.TopoRegular, graph.TopoUnitDisk, graph.TopoER} {
		for _, n := range []int{2, 3, 8, 32, 64} {
			for seed := int64(1); seed <= 20; seed++ {
				g, err := graph.Generate(topo, n, graph.RandomIDs, seed)
				if err != nil {
					t.Fatal(err)
				}
				c := NewCluster(phys.NewNetwork(sim.NewEngine(seed), g))
				poll := func() bool {
					s := make(vring.SuccMap, len(c.Nodes))
					for v, m := range c.Nodes {
						if succ, ok := m.Successor(); ok {
							s[v] = succ
						}
					}
					got, want := c.Consistent(), s.GloballyConsistent(c.IDs())
					if got != want {
						t.Fatalf("%s n=%d seed %d at t=%d: Consistent() = %v, reference %v (succ %v)",
							topo, n, seed, c.Net.Engine().Now(), got, want, s)
					}
					return got
				}
				if _, ok := c.Net.Engine().RunUntilHolds(40000, 8, poll); ok {
					converged++
				}
			}
		}
	}
	t.Logf("%d of 300 bootstraps converged", converged)
	if converged == 0 {
		t.Error("no bootstrap converged: the true verdict went unchecked")
	}
}
