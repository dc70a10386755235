package linearize

// Memory's round keeps one copy of the virtual graph, the dense image the
// round reads (Engine.csr); the graph.Graph the observers read is built from
// it when they look. This test holds the two to each other after every
// round, and the reference model in parallel_test.go holds the pair to the
// single-threaded semantics.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
)

// TestJacobiSnapshotMatchesLiveGraph: after every round of a Memory run the
// image equals a rebuild of the observer's graph row for row — less the wrap
// edge, which is ring state beside the image, once the ring is closed and
// the image does not hold that pair itself — and every row of that graph is
// strictly ascending and symmetric — on regular, power-law, unit-disk and
// line inputs and on the smallest ring, with and without ring closure, for
// several shard counts, and always in agreement with the reference model at
// the end.
func TestJacobiSnapshotMatchesLiveGraph(t *testing.T) {
	inputs := map[string]*graph.Graph{}
	for _, topo := range []graph.Topology{graph.TopoRegular, graph.TopoPowerLaw, graph.TopoUnitDisk, graph.TopoLine} {
		g, err := graph.Generate(topo, 150, graph.RandomIDs, 5)
		if err != nil {
			t.Fatal(err)
		}
		inputs[string(topo)] = g
	}
	// The smallest universe that has a ring. On the line, closing the ring
	// is the whole run. On the path 3–9–7, node 9 chains 3 to 7, and {3,9}
	// stays in the image beside the wrap edge it doubles.
	inputs["n3-line"] = graph.Line([]ids.ID{3, 7, 9})
	path := graph.NewWithNodes(3, 7, 9)
	path.AddEdge(3, 9)
	path.AddEdge(9, 7)
	inputs["n3-path"] = path

	for name, g := range inputs {
		for _, closeRing := range []bool{false, true} {
			ref := referenceRun(t, g, Config{Variant: Memory, CloseRing: closeRing}, nil)
			if !ref.stats.Converged {
				t.Fatalf("%s ring=%v: the reference did not converge: %s", name, closeRing, ref.stats)
			}
			for _, shards := range []int{1, 3, 8} {
				label := fmt.Sprintf("%s ring=%v shards=%d", name, closeRing, shards)
				var e *Engine
				rounds := 0
				cfg := Config{Variant: Memory, CloseRing: closeRing,
					Executor: sim.ExecutorConfig{Workers: 2, Shards: shards}}
				cfg.OnRound = func(round int, live *graph.Graph) {
					rounds++
					if lo, hi := int32(0), int32(len(e.nodes)-1); e.closed && !e.csr.Has(lo, hi) {
						live = live.Clone()
						live.RemoveEdge(e.nodes[lo], e.nodes[hi])
					}
					want := graph.NewCSR(live)
					if e.csr.NumEdges() != want.NumEdges() || !slices.Equal(live.Nodes(), e.nodes) {
						t.Fatalf("%s round %d: image has %d edges, live graph %d", label, round, e.csr.NumEdges(), want.NumEdges())
					}
					for i, v := range e.nodes {
						if !slices.Equal(e.csr.Row(i), want.Row(i)) {
							t.Fatalf("%s round %d: image row of %s is %v, live graph has %v",
								label, round, v, e.csr.Row(i), want.Row(i))
						}
						row := live.Neighbors(v)
						for k, u := range row {
							if k > 0 && row[k-1] >= u {
								t.Fatalf("%s round %d: live row of %s not strictly ascending: %v", label, round, v, row)
							}
							if !live.HasEdge(u, v) {
								t.Fatalf("%s round %d: live edge {%s,%s} has no mirror", label, round, v, u)
							}
						}
					}
				}
				e = NewEngine(g, cfg)
				st := e.Run()
				if rounds != st.Rounds {
					t.Fatalf("%s: observed %d rounds of %d", label, rounds, st.Rounds)
				}
				if !e.Graph().Equal(ref.final) {
					t.Fatalf("%s: final graph differs from the reference model", label)
				}
				sameStats(t, label, st, ref.stats)
			}
		}
	}
}
