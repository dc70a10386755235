package ssr

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/phys"
	"repro/internal/rel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// edgeFold rebuilds every node's share of E_v from the edge events alone:
// EvEdgeAdd puts the peer in, EvEdgeDelegate takes it out. An add of a
// member or a delegate of a non-member is a stream that did not follow a
// real change, and is counted in bad.
type edgeFold struct {
	sets    map[ids.ID]ids.Set
	lastAdd map[[2]ids.ID]int64 // (node, peer) → time of the last EvEdgeAdd
	causes  map[string]int      // "edge-add:learn" → count
	bad     []string
}

func newEdgeFold() *edgeFold {
	return &edgeFold{sets: map[ids.ID]ids.Set{}, lastAdd: map[[2]ids.ID]int64{}, causes: map[string]int{}}
}

func (f *edgeFold) Emit(e trace.Event) {
	if e.Type != trace.EvEdgeAdd && e.Type != trace.EvEdgeDelegate {
		return
	}
	f.causes[e.Type.String()+":"+e.Aux]++
	s := f.sets[e.Node]
	if s == nil {
		s = ids.NewSet()
		f.sets[e.Node] = s
	}
	if e.Type == trace.EvEdgeAdd {
		f.lastAdd[[2]ids.ID{e.Node, e.Peer}] = e.T
		if !s.Add(e.Peer) {
			f.bad = append(f.bad, e.String()+": already a member")
		}
	} else if !s.Remove(e.Peer) {
		f.bad = append(f.bad, e.String()+": not a member")
	}
}

// graph is the union of the folded sets over the given members.
func (f *edgeFold) graph(members []ids.ID) *graph.Graph {
	g := graph.NewWithNodes(members...)
	for _, v := range members {
		for u := range f.sets[v] {
			g.AddEdge(v, u)
		}
	}
	return g
}

// check compares the fold with every live node's cache, and each cached
// destination's lastHeard with its last EvEdgeAdd.
func (f *edgeFold) check(c *Cluster) error {
	if len(f.bad) > 0 {
		return fmt.Errorf("%d events without a change, first %s", len(f.bad), f.bad[0])
	}
	for _, v := range c.IDs() {
		n := c.Nodes[v]
		want := n.VirtualNeighbors()
		if got := f.sets[v].Sorted(); !slices.Equal(got, want) {
			return fmt.Errorf("t=%d node %v: folded %v, cache %v", n.net.Engine().Now(), v, got, want)
		}
		if len(n.lastHeard) != len(want) {
			return fmt.Errorf("node %v: %d lastHeard entries for %d cached destinations", v, len(n.lastHeard), len(want))
		}
		for _, dst := range want {
			at, ok := n.lastHeard[dst]
			if added := f.lastAdd[[2]ids.ID{v, dst}]; !ok || int64(at) < added {
				return fmt.Errorf("node %v: lastHeard[%v] = %d (present %v), older than its EvEdgeAdd at %d", v, dst, at, ok, added)
			}
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

// TestEdgeEventsRebuildCache holds SSR's edge events to its caches: folding
// EvEdgeAdd/EvEdgeDelegate per node gives VirtualNeighbors() at every 32-tick
// probe and at the end, over both cache modes, teardown on and off, the raw
// network and rel at 15 % loss, and a churn run past the 640-tick silence
// threshold in which lease-down and the keepalive purge both fire.
func TestEdgeEventsRebuildCache(t *testing.T) {
	type input struct {
		name  string
		cfg   Config
		rel   bool
		churn bool
	}
	var inputs []input
	for _, mode := range []cache.Mode{cache.Bounded, cache.Unbounded} {
		for _, teardown := range []bool{false, true} {
			for _, overRel := range []bool{false, true} {
				cfg := Config{CacheMode: mode, Teardown: teardown, CloseRing: true, BothDirections: true}
				name := fmt.Sprintf("%v/teardown=%v/rel=%v", mode, teardown, overRel)
				inputs = append(inputs, input{name: name, cfg: cfg, rel: overRel})
			}
		}
	}
	inputs = append(inputs, input{name: "churn", cfg: Config{CacheMode: cache.Bounded, CloseRing: true}, rel: true, churn: true})
	seen := map[string]int{}
	for i, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			seed := int64(11 + i)
			g, err := graph.Generate(graph.TopoUnitDisk, 40, graph.RandomIDs, seed)
			if err != nil {
				t.Fatal(err)
			}
			raw, net := lossyNet(g, seed, in.rel)
			fold := newEdgeFold()
			raw.SetTracer(fold)
			c := NewCluster(net, in.cfg)
			var failed error
			net.Engine().Every(32, func() bool {
				if failed == nil {
					failed = fold.check(c)
				}
				return failed == nil
			})
			end := sim.Time(1024)
			if in.churn {
				net.Engine().RunUntil(256, nil)
				for _, v := range c.IDs()[10:14] {
					c.Leave(v)
				}
				end = 2048
			}
			net.Engine().RunUntil(end, nil)
			if failed == nil {
				failed = fold.check(c)
			}
			if failed != nil {
				t.Fatal(failed)
			}
			for k, v := range fold.causes {
				seen[k] += v
			}
			if in.churn && (fold.causes["edge-delegate:lease-down"] == 0 || fold.causes["edge-delegate:purge"] == 0) {
				t.Errorf("churn run: causes %v, want lease-down and purge", fold.causes)
			}
		})
	}
	t.Logf("causes over all inputs: %v", seen)
	for _, k := range []string{"edge-add:seed", "edge-add:learn", "edge-delegate:evict",
		"edge-delegate:teardown-send", "edge-delegate:teardown-recv"} {
		if seen[k] == 0 {
			t.Errorf("no %s event over all inputs", k)
		}
	}
}

// TestSeedSwapCountsAsHearing: a direct route that replaces a longer one to
// the same physical neighbour is no E_v change, so add emits nothing and
// leaves lastHeard alone, but seed still counts the neighbour as heard.
func TestSeedSwapCountsAsHearing(t *testing.T) {
	topo := graph.New()
	topo.AddEdge(1, 2)
	topo.AddEdge(2, 3)
	topo.AddEdge(1, 3)
	net := newNet(t, topo, 1)
	fold := newEdgeFold()
	net.SetTracer(fold)
	n := NewNode(net, 1, Config{})
	if kept, added := n.add(route(t, 1, 2, 3), "learn"); !kept || !added {
		t.Fatalf("add of a new destination = %v,%v", kept, added)
	}
	net.Engine().After(100, func() {})
	net.Engine().RunUntil(100, nil)
	n.seed("reseed", 3)
	if got := n.rc.Route(3); got.Hops() != 1 {
		t.Errorf("route to 3 = %v, want the direct one", got)
	}
	if n.lastHeard[3] != 100 {
		t.Errorf("lastHeard[3] = %d, want 100", n.lastHeard[3])
	}
	if fold.causes["edge-add:learn"] != 1 || len(fold.causes) != 1 {
		t.Errorf("events %v, want only the learn add", fold.causes)
	}
}
