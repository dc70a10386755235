package vrr

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/rel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// vsetFold rebuilds every node's vset from the edge events alone. An add of
// a member or a delegate of a non-member is counted in bad.
type vsetFold struct {
	sets   map[ids.ID]ids.Set
	causes map[string]int // "edge-add:setup" → count
	bad    []string
}

func (f *vsetFold) Emit(e trace.Event) {
	if e.Type != trace.EvEdgeAdd && e.Type != trace.EvEdgeDelegate && e.Type != trace.EvRingClosed {
		return
	}
	f.causes[e.Type.String()+":"+e.Aux]++
	s := f.sets[e.Node]
	if s == nil {
		s = ids.NewSet()
		f.sets[e.Node] = s
	}
	switch {
	case e.Type == trace.EvEdgeAdd && !s.Add(e.Peer):
		f.bad = append(f.bad, e.String()+": already a member")
	case e.Type == trace.EvEdgeDelegate && !s.Remove(e.Peer):
		f.bad = append(f.bad, e.String()+": not a member")
	}
}

func (f *vsetFold) check(c *Cluster, live []ids.ID) error {
	if len(f.bad) > 0 {
		return fmt.Errorf("%d events without a change, first %s", len(f.bad), f.bad[0])
	}
	for _, v := range live {
		n := c.Nodes[v]
		if got, want := f.sets[v].Sorted(), n.VirtualNeighbors(); !slices.Equal(got, want) {
			return fmt.Errorf("t=%d node %v: folded %v, vset %v", n.net.Engine().Now(), v, got, want)
		}
	}
	return nil
}

// lossyNet is the raw network on g, and the transport over it: the network
// itself, or rel over it at 15 % frame loss.
func lossyNet(g *graph.Graph, seed int64, overRel bool) (*phys.Network, phys.Transport) {
	if !overRel {
		raw := phys.NewNetwork(sim.NewEngine(seed), g)
		return raw, raw
	}
	raw := phys.NewNetwork(sim.NewEngine(seed), g, phys.WithLoss(0.15))
	return raw, rel.New(raw, rel.DefaultConfig())
}

// TestEdgeEventsRebuildVset holds VRR's edge events to its vsets: folding
// EvEdgeAdd/EvEdgeDelegate per node gives VirtualNeighbors() at every 32-tick
// probe and at the end, with CloseRing, over the raw network, rel at 15 %
// loss, and a rel run in which four nodes fail and lease-down unlinks them.
func TestEdgeEventsRebuildVset(t *testing.T) {
	seen := map[string]int{}
	for i, in := range []struct {
		name       string
		rel, churn bool
	}{{"raw", false, false}, {"rel", true, false}, {"churn", true, true}} {
		t.Run(in.name, func(t *testing.T) {
			seed := int64(1)<<20 + int64(i)
			g, err := graph.Generate(graph.TopoRegular, 32, graph.RandomIDs, seed)
			if err != nil {
				t.Fatal(err)
			}
			raw, net := lossyNet(g, seed, in.rel)
			fold := &vsetFold{sets: map[ids.ID]ids.Set{}, causes: map[string]int{}}
			raw.SetTracer(fold)
			c := NewCluster(net, Config{CloseRing: true})
			live := c.IDs()
			var failed error
			net.Engine().Every(32, func() bool {
				if failed == nil {
					failed = fold.check(c, live)
				}
				return failed == nil
			})
			if in.churn {
				net.Engine().RunUntil(512, nil)
				for _, v := range live[10:14] {
					c.Nodes[v].Stop()
					net.FailNode(v)
				}
				live = slices.Delete(live, 10, 14)
			}
			net.Engine().RunUntil(2048, nil)
			if failed == nil {
				failed = fold.check(c, live)
			}
			if failed != nil {
				t.Fatal(failed)
			}
			for k, v := range fold.causes {
				seen[k] += v
			}
			if in.churn && fold.causes["edge-delegate:lease-down"] == 0 {
				t.Errorf("churn run: causes %v, want lease-down", fold.causes)
			}
		})
	}
	t.Logf("causes over all inputs: %v", seen)
	for _, k := range []string{"edge-add:beacon", "edge-add:setup", "edge-add:wrap", "ring-closed:wrap-left", "ring-closed:wrap-right"} {
		if seen[k] == 0 {
			t.Errorf("no %s event over all inputs", k)
		}
	}
}
