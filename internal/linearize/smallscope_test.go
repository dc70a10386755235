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
)

// smallScopeIDs are the identifiers of the small universes, gaps chosen so
// that LSN's exponential intervals hold none, one or several neighbours.
var smallScopeIDs = []ids.ID{3, 7, 9, 20, 41, 100}

// smallScopeRounds bounds every run below; the slowest one takes 5.
const smallScopeRounds = 8

// knownRingClosureBug reports whether ring closure is known not to work on
// the input g: it has a physical edge between its smallest and its largest
// identifier. With CloseRing set the engine takes that edge for the wrap
// edge — the exemption from linearization goes by identity, not by who
// created the edge — so the smallest node never introduces the largest to
// anyone and the run may never converge (nodes {1, 2, 3}, edges 1–2 and
// 1–3). ROADMAP item 1 is the fix; until it lands, tests set these inputs
// aside under CloseRing through this one function, and that is a gap in
// what they show, not a statement of intended semantics.
func knownRingClosureBug(g *graph.Graph) bool {
	nodes := g.Nodes()
	return len(nodes) >= 3 && g.HasEdge(nodes[0], nodes[len(nodes)-1])
}

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
// on a superset of it (Memory, LSN), and takes the reference model's run
// round by round — by replay where two shards make the layout part of the
// schedule.
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
		runs, setAside, slowest := 0, 0, 0
		connectedGraphs(n, func(g *graph.Graph) {
			edges := fmt.Sprint(g.Edges())
			for _, v := range Variants() {
				for _, closeRing := range []bool{false, true} {
					for si, cfg := range schedules {
						if closeRing && knownRingClosureBug(g) {
							setAside++
							continue
						}
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
						case !got.final.SupersetOfLine() || (ringed && !got.final.HasEdge(smallScopeIDs[0], smallScopeIDs[n-1])):
							t.Fatalf("%s: converged on %v, which lacks a line or wrap edge", label, got.final.Edges())
						}
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
		t.Logf("n=%d: %d runs, slowest %d rounds; %d set aside (knownRingClosureBug)", n, runs, slowest, setAside)
	}
}
