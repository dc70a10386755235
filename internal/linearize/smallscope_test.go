package linearize

// Small-scope exhaustion of the round model (ROADMAP item 2), after Zave,
// "How to Make Chord Correct": the counterexamples are small, so every
// connected start state on a handful of identifiers is worth more than a
// sample of large ones.

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/trace"
)

// smallScopeIDs are the identifiers of the small universes, gaps chosen so
// that LSN's exponential intervals hold none, one or several neighbours.
var smallScopeIDs = []ids.ID{3, 7, 9, 20, 41, 100}

// smallScopeRounds bounds every run below; the slowest one takes 4.
const smallScopeRounds = 8

// connectedGraphs calls fn with every connected graph on the first n
// identifiers of smallScopeIDs.
func connectedGraphs(n int, fn func(g *graph.Graph)) {
	nodes := smallScopeIDs[:n]
	var pairs [][2]ids.ID
	for i := range nodes {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]ids.ID{nodes[i], nodes[j]})
		}
	}
	for mask := 0; mask < 1<<len(pairs); mask++ {
		g := graph.NewWithNodes(nodes...)
		for k, p := range pairs {
			if mask>>k&1 == 1 {
				g.AddEdge(p[0], p[1])
			}
		}
		if g.Connected() {
			fn(g)
		}
	}
}

// TestSmallScopeExhaustive: from every connected graph on up to five
// identifiers (six unless -short: 26 704 graphs), every variant, with and
// without ring closure, on one shard, on two shards and under the daemon
// with two seeds, keeps the graph connected after every round, converges
// within smallScopeRounds, ends on exactly the line or sorted ring (Pure) or
// on a superset of it (Memory, LSN), counts the edges an observer sees
// (wrapEdgeBesideTheLine), and takes the reference model's run round by
// round — by replay where two shards make the layout part of the schedule.
func TestSmallScopeExhaustive(t *testing.T) {
	schedules := []Config{
		{Executor: sim.ExecutorConfig{Shards: 1}},
		{Executor: sim.ExecutorConfig{Shards: 2, Workers: 2}},
		{Scheduler: sim.RandomSequential, Seed: 1},
		{Scheduler: sim.RandomSequential, Seed: 2},
	}
	maxN := len(smallScopeIDs)
	if testing.Short() {
		maxN--
	}
	for n := 1; n <= maxN; n++ {
		runs, slowest := 0, 0
		connectedGraphs(n, func(g *graph.Graph) {
			edges := fmt.Sprint(g.Edges())
			for _, v := range Variants() {
				for _, closeRing := range []bool{false, true} {
					for si, cfg := range schedules {
						cfg.Variant, cfg.CloseRing, cfg.MaxRounds = v, closeRing, smallScopeRounds
						label := fmt.Sprintf("%s %s ring=%v schedule=%d", edges, v, closeRing, si)
						got := runRounds(g, cfg)
						for r, cur := range got.rounds {
							if !cur.Connected() {
								t.Fatalf("%s: disconnected after round %d", label, r)
							}
						}
						if !got.stats.Converged {
							t.Fatalf("%s: not converged after %d rounds", label, smallScopeRounds)
						}
						ringed := closeRing && n >= 3
						switch {
						case v == Pure && ringed && !got.final.IsSortedRing():
							t.Fatalf("%s: pure must end on exactly the sorted ring, got %v", label, got.final.Edges())
						case v == Pure && !ringed && !got.final.IsLinearized():
							t.Fatalf("%s: pure must end on exactly the line, got %v", label, got.final.Edges())
						case !graph.NewCSR(got.final).SupersetOfLine() || (ringed && !got.final.HasEdge(smallScopeIDs[0], smallScopeIDs[n-1])):
							t.Fatalf("%s: converged on %v, which lacks a line or wrap edge", label, got.final.Edges())
						}
						wrapEdgeBesideTheLine(t, label, g, got)
						if got.stats.Par.Shards > 1 && v != Memory {
							sameAsReplay(t, label, g, cfg, got)
						} else {
							sameRun(t, label, got, referenceRun(t, g, cfg, nil))
						}
						runs++
						slowest = max(slowest, got.stats.Rounds)
					}
				}
			}
		})
		t.Logf("n=%d: %d runs, slowest %d rounds", n, runs, slowest)
	}
}

// wrapEdgeBesideTheLine holds a run of the engine on input g to the rule
// that the wrap edge is ring state beside the rows: the edge counts the run
// reports are the observer's (Stats.FinalEdges of the final graph, every
// EvRoundEnd of the graph OnRound saw, a wrap pair that is also a kept input
// link counted once), the observer has the wrap edge from the round of
// EvRingClosed on, and the rows do not hold it — a chain pair lies on one
// side of its proposer, so {min, max} is in a row only if the input put it
// there.
func wrapEdgeBesideTheLine(t *testing.T, label string, g *graph.Graph, got runResult) {
	t.Helper()
	if got.stats.FinalEdges != got.final.NumEdges() {
		t.Fatalf("%s: FinalEdges = %d, the final graph has %d", label, got.stats.FinalEdges, got.final.NumEdges())
	}
	nodes := g.Nodes()
	lo, hi := nodes[0], nodes[len(nodes)-1]
	round, closedAt := 0, -1
	for _, ev := range got.events {
		switch ev.Type {
		case trace.EvRingClosed:
			closedAt = int(ev.T)
		case trace.EvRoundEnd:
			cur := got.rounds[round]
			if int(ev.Value) != cur.NumEdges() {
				t.Fatalf("%s: round %d ends on %v edges, OnRound saw %d", label, round, ev.Value, cur.NumEdges())
			}
			if closedAt >= 0 && round >= closedAt && !cur.HasEdge(lo, hi) {
				t.Fatalf("%s: ring closed in round %d, no wrap edge after round %d", label, closedAt, round)
			}
			round++
		}
	}
	e, last := got.engine, len(nodes)-1
	if lr, hr := e.row(0), e.row(last); e.closed && !g.HasEdge(lo, hi) && (lr[len(lr)-1] == int32(last) || hr[0] == 0) {
		t.Fatalf("%s: the extremal rows hold the wrap edge: %v, %v", label, lr, hr)
	}
}
