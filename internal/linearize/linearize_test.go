package linearize

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/vring"
)

// TestChainEdges and the chain properties in property_test.go hold the
// reference model's chainEdges (parallel_test.go); the dense step has no
// chain function of its own and is held to the reference run by run.
func TestChainEdges(t *testing.T) {
	// v=10 with neighbors 2 < 5 < 10 < 20 < 30:
	// chain = {2,5},{5,10},{10,20},{20,30}.
	got := chainEdges(10, []ids.ID{2, 5, 20, 30})
	want := []graph.Edge{{U: 2, V: 5}, {U: 5, V: 10}, {U: 10, V: 20}, {U: 20, V: 30}}
	if len(got) != len(want) {
		t.Fatalf("chainEdges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chainEdges = %v, want %v", got, want)
		}
	}
	if chainEdges(10, nil) != nil {
		t.Error("empty neighborhood must chain nothing")
	}
	// One-sided neighborhood: v=1, nbrs 5,9 → {1,5},{5,9}.
	oneSide := chainEdges(1, []ids.ID{5, 9})
	if len(oneSide) != 2 || oneSide[0] != (graph.Edge{U: 1, V: 5}) || oneSide[1] != (graph.Edge{U: 5, V: 9}) {
		t.Errorf("one-sided chain = %v", oneSide)
	}
	// Single neighbor keeps the edge.
	single := chainEdges(7, []ids.ID{3})
	if len(single) != 1 || single[0] != (graph.Edge{U: 3, V: 7}) {
		t.Errorf("single chain = %v", single)
	}
}

func randomConnected(n int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	nodes := graph.MakeIDs(n, graph.RandomIDs, r)
	return graph.ErdosRenyi(nodes, 0.15, r)
}

func TestAllVariantsConvergeSynchronous(t *testing.T) {
	for _, v := range Variants() {
		g := randomConnected(60, 42)
		stats, final := Run(g, Config{Variant: v, Scheduler: sim.Synchronous, Seed: 1})
		if !stats.Converged {
			t.Errorf("%s did not converge: %s", v, stats)
			continue
		}
		if !final.SupersetOfLine() {
			t.Errorf("%s final graph misses line edges", v)
		}
		if v == Pure && !final.IsLinearized() {
			t.Errorf("pure must end on exactly the line, got %d edges for %d nodes",
				final.NumEdges(), final.NumNodes())
		}
		if !final.Connected() {
			t.Errorf("%s disconnected the graph", v)
		}
	}
}

func TestAllVariantsConvergeSequentialDaemon(t *testing.T) {
	for _, v := range Variants() {
		g := randomConnected(40, 7)
		stats, final := Run(g, Config{Variant: v, Scheduler: sim.RandomSequential, Seed: 99})
		if !stats.Converged {
			t.Errorf("%s/sequential did not converge: %s", v, stats)
			continue
		}
		if !final.SupersetOfLine() {
			t.Errorf("%s/sequential misses line edges", v)
		}
	}
}

func TestConnectivityPreservedEveryRound(t *testing.T) {
	// §3: "each iteration of the linearization process preserves the
	// connectedness of the network."
	for _, v := range Variants() {
		for _, sched := range []sim.Scheduler{sim.Synchronous, sim.RandomSequential} {
			g := randomConnected(30, int64(10+int(v)))
			cfg := Config{Variant: v, Scheduler: sched, Seed: 3}
			cfg.OnRound = func(round int, cur *graph.Graph) {
				if !cur.Connected() {
					t.Fatalf("%s/%s disconnected the graph at round %d", v, sched, round)
				}
			}
			if stats, _ := Run(g, cfg); !stats.Converged {
				t.Errorf("%s/%s did not converge", v, sched)
			}
		}
	}
}

func TestResolvesLoopyState(t *testing.T) {
	// Figure 1's loopy state is ISPRP-locally consistent; linearization
	// must still straighten it into the sorted line (E1).
	loopy := vring.LoopyExample().ToGraph()
	for _, v := range Variants() {
		stats, final := Run(loopy, Config{Variant: v, Scheduler: sim.Synchronous, Seed: 1})
		if !stats.Converged {
			t.Errorf("%s failed on the loopy state: %s", v, stats)
		}
		if !final.SupersetOfLine() {
			t.Errorf("%s loopy fixed point misses the line", v)
		}
	}
}

func TestMergesSeparateRings(t *testing.T) {
	// Figure 2: two disjoint virtual rings on a connected *virtual* start
	// state cannot be merged by anything that only follows virtual edges —
	// the paper avoids the state by initializing E_v := E_p on a connected
	// physical graph. Here we verify the E_v := E_p recipe: take the two
	// rings PLUS one physical edge bridging them; linearization produces
	// one line (E2).
	s := vring.SeparateRingsExample()
	g := s.ToGraph()
	g.AddEdge(18, 21) // the physical link that E_v inherits
	for _, v := range Variants() {
		stats, final := Run(g, Config{Variant: v, Scheduler: sim.Synchronous, Seed: 1})
		if !stats.Converged {
			t.Errorf("%s failed to merge rings: %s", v, stats)
		}
		if len(final.Components()) != 1 {
			t.Errorf("%s left %d components", v, len(final.Components()))
		}
	}
}

func TestCloseRingProducesSortedRing(t *testing.T) {
	g := randomConnected(25, 5)
	stats, final := Run(g, Config{Variant: Pure, Scheduler: sim.Synchronous, Seed: 1, CloseRing: true})
	if !stats.Converged {
		t.Fatalf("pure+closering did not converge: %s", stats)
	}
	if !final.IsSortedRing() {
		t.Fatalf("final graph is not the sorted ring: %d nodes %d edges",
			final.NumNodes(), final.NumEdges())
	}
	// Memory/LSN: line superset + wrap edge.
	stats2, final2 := Run(g, Config{Variant: LSN, Scheduler: sim.Synchronous, Seed: 1, CloseRing: true})
	if !stats2.Converged {
		t.Fatalf("lsn+closering did not converge: %s", stats2)
	}
	nodes := final2.Nodes()
	if !final2.HasEdge(nodes[0], nodes[len(nodes)-1]) {
		t.Error("wrap edge missing")
	}
	if !final2.SupersetOfLine() {
		t.Error("line missing under LSN")
	}
}

func TestCloseRingSequential(t *testing.T) {
	g := randomConnected(15, 8)
	stats, final := Run(g, Config{Variant: Pure, Scheduler: sim.RandomSequential, Seed: 2, CloseRing: true})
	if !stats.Converged || !final.IsSortedRing() {
		t.Fatalf("sequential pure+closering: %s ring=%v", stats, final.IsSortedRing())
	}
}

func TestClosedSortedRingStaysOne(t *testing.T) {
	// Start from the already-closed sorted ring: with CloseRing set its line
	// is in place, so the ring closes before the first round and the run is
	// over — the link between the extremes is the wrap edge's double, one
	// edge of the output. Without CloseRing, pure linearization opens the
	// ring back into the line.
	nodes := []ids.ID{10, 20, 30, 40, 50}
	ring := graph.Ring(nodes)
	for _, v := range Variants() {
		stats, final := Run(ring, Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: true})
		if !stats.Converged || stats.Rounds != 0 || stats.FinalEdges != len(nodes) || !final.Equal(ring) {
			t.Errorf("%s: a closed sorted ring should stay one in 0 rounds: %s, %v", v, stats, final.Edges())
		}
	}
	stats, final := Run(ring, Config{Variant: Pure, Scheduler: sim.Synchronous})
	if !stats.Converged {
		t.Fatalf("opening the ring did not converge: %s", stats)
	}
	if !final.IsLinearized() {
		t.Error("without CloseRing the ring should linearize to the open line")
	}
}

func TestLSNStateBound(t *testing.T) {
	// E8: LSN's peak degree stays near 2·log(space) while memory's grows
	// with n. We check LSN's absolute bound and that memory exceeds it on a
	// dense start.
	r := rand.New(rand.NewSource(21))
	nodes := graph.MakeIDs(120, graph.RandomIDs, r)
	dense := graph.ErdosRenyi(nodes, 0.5, r)

	lsnStats, _ := Run(dense, Config{Variant: LSN, Scheduler: sim.Synchronous, Seed: 1})
	if !lsnStats.Converged {
		t.Fatalf("lsn did not converge: %s", lsnStats)
	}
	memStats, _ := Run(dense, Config{Variant: Memory, Scheduler: sim.Synchronous, Seed: 1})
	if !memStats.Converged {
		t.Fatalf("memory did not converge: %s", memStats)
	}
	if lsnStats.FinalEdges >= memStats.FinalEdges {
		t.Errorf("LSN final edges (%d) should undercut memory (%d)",
			lsnStats.FinalEdges, memStats.FinalEdges)
	}
	// Bound: ≤ 2 directions × (64 intervals + 1) per node is loose but
	// sanity-checks pruning is active at the fixed point.
	maxDeg := 0
	_, lsnFinal := Run(dense, Config{Variant: LSN, Scheduler: sim.Synchronous, Seed: 1})
	for _, v := range lsnFinal.Nodes() {
		if d := lsnFinal.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg > 2*(ids.NumIntervals+1) {
		t.Errorf("LSN fixed-point degree %d exceeds interval bound", maxDeg)
	}
}

func TestSelfStabilizationAfterPerturbation(t *testing.T) {
	// E9: converge, then damage the line (cross edges, remove a line edge
	// but keep connectivity via a chord), and verify re-convergence without
	// any global restart.
	g := randomConnected(40, 31)
	stats, line := Run(g, Config{Variant: LSN, Scheduler: sim.Synchronous, Seed: 1})
	if !stats.Converged {
		t.Fatal("initial convergence failed")
	}
	nodes := line.Nodes()
	// Perturb: add long-range chords and cut one line edge (connectivity
	// kept by the chords).
	perturbed := line.Clone()
	perturbed.AddEdge(nodes[0], nodes[len(nodes)-1])
	perturbed.AddEdge(nodes[2], nodes[len(nodes)-3])
	perturbed.RemoveEdge(nodes[4], nodes[5])
	if !perturbed.Connected() {
		t.Fatal("test perturbation must keep the graph connected")
	}
	stats2, final := Run(perturbed, Config{Variant: LSN, Scheduler: sim.Synchronous, Seed: 2})
	if !stats2.Converged {
		t.Fatalf("did not re-converge after perturbation: %s", stats2)
	}
	if !final.SupersetOfLine() {
		t.Error("recovered graph misses line edges")
	}
	if stats2.Rounds > stats.Rounds+8 {
		t.Logf("recovery (%d rounds) slower than bootstrap (%d) — acceptable but noted",
			stats2.Rounds, stats.Rounds)
	}
}

func TestDegenerateGraphs(t *testing.T) {
	// Empty, single node, two nodes.
	for _, v := range Variants() {
		empty := graph.New()
		if stats, _ := Run(empty, Config{Variant: v}); !stats.Converged || stats.Rounds != 0 {
			t.Errorf("%s on empty graph: %s", v, stats)
		}
		one := graph.NewWithNodes(5)
		if stats, _ := Run(one, Config{Variant: v}); !stats.Converged {
			t.Errorf("%s on single node: %s", v, stats)
		}
		two := graph.Line([]ids.ID{3, 9})
		stats, final := Run(two, Config{Variant: v, CloseRing: true})
		if !stats.Converged || !final.HasEdge(3, 9) {
			t.Errorf("%s on two nodes: %s", v, stats)
		}
	}
}

func TestAlreadyLinearIsZeroRounds(t *testing.T) {
	line := graph.Line([]ids.ID{1, 2, 3, 4, 5})
	stats, _ := Run(line, Config{Variant: Pure, Scheduler: sim.Synchronous})
	if stats.Rounds != 0 || !stats.Converged {
		t.Errorf("already-linear start should converge in 0 rounds: %s", stats)
	}
}

func TestMaxRoundsRespected(t *testing.T) {
	g := randomConnected(30, 3)
	stats, _ := Run(g, Config{Variant: Pure, Scheduler: sim.Synchronous, MaxRounds: 1})
	if stats.Converged {
		t.Skip("graph converged in one round; pick a denser start")
	}
	if stats.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", stats.Rounds)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := randomConnected(25, 13)
	stats, _ := Run(g, Config{Variant: LSN, Scheduler: sim.Synchronous, Seed: 1})
	if stats.EdgesAdded == 0 {
		t.Error("a nontrivial run must add edges")
	}
	if stats.EdgesDropped == 0 {
		t.Error("LSN must prune some edges on a random start")
	}
	if stats.PeakDegree == 0 || stats.FinalEdges == 0 {
		t.Error("peak degree / final edges not recorded")
	}
	if stats.String() == "" {
		t.Error("Stats.String empty")
	}
	if Pure.String() != "pure" || Memory.String() != "memory" || LSN.String() != "lsn" || Variant(9).String() != "unknown" {
		t.Error("Variant.String broken")
	}
}

func TestOnRoundFires(t *testing.T) {
	g := randomConnected(20, 4)
	rounds := 0
	cfg := Config{Variant: Memory, Scheduler: sim.Synchronous, Seed: 1,
		OnRound: func(int, *graph.Graph) { rounds++ }}
	stats, _ := Run(g, cfg)
	if rounds != stats.Rounds {
		t.Errorf("OnRound fired %d times for %d rounds", rounds, stats.Rounds)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() Stats {
		g := randomConnected(35, 77)
		s, _ := Run(g, Config{Variant: LSN, Scheduler: sim.RandomSequential, Seed: 5})
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("runs differ: %s vs %s", a, b)
	}
}

func TestPowerLawConvergesFast(t *testing.T) {
	// E4 smoke check: LSN on a power-law graph (α=2) with 2000 nodes must
	// converge in well under 39 rounds (the paper's quoted figure for a
	// much larger graph).
	r := rand.New(rand.NewSource(2))
	nodes := graph.MakeIDs(2000, graph.RandomIDs, r)
	g := graph.PowerLaw(nodes, 2.0, r)
	stats, _ := Run(g, Config{Variant: LSN, Scheduler: sim.Synchronous, Seed: 1})
	if !stats.Converged {
		t.Fatalf("LSN on power-law did not converge: %s", stats)
	}
	if stats.Rounds >= 39 {
		t.Errorf("LSN rounds = %d, paper expects < 39 at much larger n", stats.Rounds)
	}
	t.Logf("LSN power-law n=2000: %s", stats)
}
