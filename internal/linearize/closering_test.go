package linearize

// Ring closure on inputs that link their two extremal nodes (ROADMAP item 1).
// The engine used to take such a link for the wrap edge and exempt it from
// linearization by identity, so the smallest node never introduced the
// largest to anyone: three nodes were enough to never converge, and on the
// n = 4000 input below LSN missed exactly one line edge for ever.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
)

// closedRing reports what is wrong with a CloseRing run's outcome, or "".
func closedRing(v Variant, st Stats, final *graph.Graph) string {
	nodes := final.Nodes()
	switch {
	case !st.Converged:
		return "stalled: " + st.String()
	case !final.SupersetOfLine() || !final.HasEdge(nodes[0], nodes[len(nodes)-1]):
		return "converged without a line or wrap edge"
	case v == Pure && !final.IsSortedRing():
		return "pure must end on exactly the sorted ring"
	}
	return ""
}

// TestCloseRingThreeNodes is the counterexample at its smallest: nodes
// {1, 2, 3}, edges 1–2 and 1–3. Node 1 chains 2 to 3, the line is in place
// and the ring closes in the same round; where Memory and LSN keep 1–3 as a
// shortcut it is the wrap edge's double, one edge of the three.
func TestCloseRingThreeNodes(t *testing.T) {
	g := graph.NewWithNodes(1, 2, 3)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	for _, v := range Variants() {
		for _, sched := range []sim.Scheduler{sim.Synchronous, sim.RandomSequential} {
			st, final := Run(g, Config{Variant: v, Scheduler: sched, Seed: 1, CloseRing: true, MaxRounds: 8})
			if msg := closedRing(v, st, final); msg != "" {
				t.Errorf("%s/%s: %s", v, sched, msg)
			}
			if st.Rounds != 1 || st.FinalEdges != 3 || !final.Equal(graph.Ring([]ids.ID{1, 2, 3})) {
				t.Errorf("%s/%s: want the ring of three after 1 round, got %v: %s", v, sched, final.Edges(), st)
			}
		}
	}
}

// TestCloseRingPowerLaw4000 is the input the layered benchmark recorded as an
// LSN livelock (lin-lsn-powerlaw --seed 107, repetition 5): a physical
// {min, max} link whose max end has degree 1. It takes as many rounds with
// CloseRing as without: 16 on the default two shards, 20 on one.
func TestCloseRingPowerLaw4000(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4000 regression input skipped in -short mode")
	}
	g, err := graph.Generate(graph.TopoPowerLaw, 4000, graph.RandomIDs, 112197637)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		st, final := Run(g, Config{Variant: LSN, CloseRing: true, MaxRounds: 128,
			Executor: sim.ExecutorConfig{Shards: shards}})
		if msg := closedRing(LSN, st, final); msg != "" {
			t.Errorf("shards=%d: %s", shards, msg)
		}
		t.Logf("shards=%d: %s", shards, st)
	}
}

// TestCloseRingSweep is the round model's third of ROADMAP's `make sweep`:
// power-law inputs from 1000 generator seeds (50 with -short), each as
// generated (input 0) and with its extremal nodes linked (input 1), every
// variant, on one shard and on two (the default partition is one shard at
// this size; two puts the extremal nodes on the boundary path), CloseRing
// set. No run may stall, every one ends with the wrap edge, Pure on exactly
// the sorted ring.
func TestCloseRingSweep(t *testing.T) {
	const n = 96
	seeds := 1000
	if testing.Short() {
		seeds = 50
	}
	runs, stalls := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		g, err := graph.Generate(graph.TopoPowerLaw, n, graph.RandomIDs, seed)
		if err != nil {
			t.Fatal(err)
		}
		linked := g.Clone()
		nodes := g.Nodes()
		linked.AddEdge(nodes[0], nodes[n-1])
		for k, in := range []*graph.Graph{g, linked} {
			for _, v := range Variants() {
				for _, shards := range []int{1, 2} {
					st, final := Run(in, Config{Variant: v, CloseRing: true, MaxRounds: 128,
						Executor: sim.ExecutorConfig{Shards: shards}})
					runs++
					if !st.Converged {
						stalls++
					}
					if msg := closedRing(v, st, final); msg != "" {
						t.Errorf("seed %d input %d %s shards=%d: %s", seed, k, v, shards, msg)
					}
				}
			}
		}
	}
	t.Logf("sweep: %d runs over %d seeds, %d stalls", runs, seeds, stalls)
}
