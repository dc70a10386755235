package linearize

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
)

func TestChainEdgesProperties(t *testing.T) {
	// Properties of Algorithm 1's chain over a sorted neighborhood:
	//  1. it has exactly len(nbrs) edges when v splits the list, else
	//     len(nbrs) edges too (v is an endpoint of the inserted sequence);
	//  2. every neighbor appears in at least one chain edge;
	//  3. every chain edge is no longer than the widest original edge and
	//     connects members of {v} ∪ nbrs.
	f := func(vRaw uint32, raw []uint32) bool {
		v := ids.ID(vRaw)
		set := ids.NewSet()
		for _, x := range raw {
			if ids.ID(x) != v {
				set.Add(ids.ID(x))
			}
		}
		nbrs := set.Sorted()
		edges := chainEdges(v, nbrs)
		if len(nbrs) == 0 {
			return edges == nil
		}
		if len(edges) != len(nbrs) {
			return false
		}
		members := set.Clone()
		members.Add(v)
		covered := ids.NewSet()
		var widest uint64
		for _, u := range nbrs {
			if d := ids.LineDist(v, u); d > widest {
				widest = d
			}
		}
		for _, e := range edges {
			if !members.Has(e.U) || !members.Has(e.V) {
				return false
			}
			if ids.LineDist(e.U, e.V) > widest {
				return false
			}
			covered.Add(e.U)
			covered.Add(e.V)
		}
		for _, u := range nbrs {
			if !covered.Has(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChainEdgesConnectNeighborhood(t *testing.T) {
	// The chain must connect {v} ∪ nbrs into one component — this is what
	// makes every linearization step connectivity-preserving (§3).
	f := func(vRaw uint32, raw []uint32) bool {
		v := ids.ID(vRaw)
		set := ids.NewSet()
		for _, x := range raw {
			if ids.ID(x) != v {
				set.Add(ids.ID(x))
			}
		}
		nbrs := set.Sorted()
		if len(nbrs) == 0 {
			return true
		}
		g := graph.NewWithNodes(append(nbrs, v)...)
		for _, e := range chainEdges(v, nbrs) {
			g.AddEdge(e.U, e.V)
		}
		return g.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKeepSetProperties(t *testing.T) {
	// LSN's keep set: bounded by 2·NumIntervals, always contains the
	// closest neighbor per side, every member is a current neighbor, and the
	// dense form (ascending, read off the row in one pass) names exactly the
	// members of the reference model's.
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n := 5 + r.Intn(60)
		nodes := graph.MakeIDs(n, graph.RandomIDs, r)
		g := graph.ErdosRenyi(nodes, 0.3, r)
		e := NewEngine(g, Config{Variant: LSN})
		ref := &refModel{cfg: e.cfg, g: g, nodes: e.nodes}
		for i, v := range e.nodes {
			var keep []ids.ID
			for _, j := range e.keepLine(int32(i), e.rows[i], nil) {
				keep = append(keep, e.nodes[j])
			}
			want := ref.keepSet(v)
			sortIDs(want)
			if !slices.Equal(keep, want) {
				t.Fatalf("keep set of %s is %v, the reference keeps %v", v, keep, want)
			}
			if len(keep) > 2*ids.NumIntervals {
				t.Fatalf("keep set too large: %d", len(keep))
			}
			for _, u := range keep {
				if !g.HasEdge(v, u) {
					t.Fatalf("keep set contains non-neighbor %s", u)
				}
			}
			var closestL, closestR ids.ID
			var hasL, hasR bool
			for _, u := range g.Neighbors(v) {
				if u < v {
					if !hasL || ids.LineDist(v, u) < ids.LineDist(v, closestL) {
						closestL, hasL = u, true
					}
				} else {
					if !hasR || ids.LineDist(v, u) < ids.LineDist(v, closestR) {
						closestR, hasR = u, true
					}
				}
			}
			keepSet := ids.NewSet(keep...)
			if hasL && !keepSet.Has(closestL) {
				t.Fatalf("closest left %s not kept at %s", closestL, v)
			}
			if hasR && !keepSet.Has(closestR) {
				t.Fatalf("closest right %s not kept at %s", closestR, v)
			}
		}
	}
}

func TestNodeSetInvariant(t *testing.T) {
	// Linearization never adds or removes nodes, for any variant/scheduler.
	f := func(seed int64, variantRaw, schedRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + int(seed%23+23)%23
		nodes := graph.MakeIDs(n, graph.RandomIDs, r)
		g := graph.ErdosRenyi(nodes, 0.25, r)
		want := g.NumNodes()
		v := Variants()[int(variantRaw)%3]
		sched := sim.Scheduler(int(schedRaw) % 2)
		_, final := Run(g, Config{Variant: v, Scheduler: sched, Seed: seed, MaxRounds: 64})
		return final.NumNodes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConvergedAlwaysEmbedsLine(t *testing.T) {
	// For random connected graphs, every variant's converged result embeds
	// the sorted line and stays connected (the §3 global-consistency core).
	f := func(seed int64, variantRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nodes := graph.MakeIDs(20, graph.RandomIDs, r)
		g := graph.ErdosRenyi(nodes, 0.3, r)
		v := Variants()[int(variantRaw)%3]
		stats, final := Run(g, Config{Variant: v, Scheduler: sim.Synchronous, Seed: seed})
		if !stats.Converged {
			return false
		}
		return final.SupersetOfLine() && final.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPureSequentialPotentialDecreases(t *testing.T) {
	// Under the sequential daemon, pure linearization's total edge length
	// (the classic potential) never increases across rounds.
	r := rand.New(rand.NewSource(77))
	nodes := graph.MakeIDs(30, graph.RandomIDs, r)
	g := graph.ErdosRenyi(nodes, 0.3, r)
	potential := func(gr *graph.Graph) (sum float64) {
		for _, e := range gr.Edges() {
			sum += float64(ids.LineDist(e.U, e.V))
		}
		return sum
	}
	last := potential(g)
	cfg := Config{Variant: Pure, Scheduler: sim.RandomSequential, Seed: 3,
		OnRound: func(round int, cur *graph.Graph) {
			p := potential(cur)
			if p > last {
				t.Fatalf("potential increased at round %d: %.0f -> %.0f", round, last, p)
			}
			last = p
		}}
	if stats, _ := Run(g, cfg); !stats.Converged {
		t.Fatal("did not converge")
	}
}
