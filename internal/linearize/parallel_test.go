package linearize

// Seed-for-seed equivalence suite for the round executor. The determinism
// contract has three layers, each pinned by a test:
//
//  1. For any fixed shard partition, the outcome is identical for every
//     worker count — including stats and the full trace stream — and a
//     zero Config is the default partition at any worker count.
//  2. The executor agrees with referenceRun, the single-threaded model the
//     repository used to run by default ("legacy" below): Memory (Jacobi)
//     bit for bit at every shard count, Pure/LSN at one shard.
//  3. The worker pool is race-free (hammer test, effective under -race).

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/trace"
)

// captureTracer records every event for stream comparison.
type captureTracer struct{ events []trace.Event }

func (c *captureTracer) Emit(e trace.Event) { c.events = append(c.events, e) }

// sansShardEvents drops the executor-accounting events, leaving the
// protocol-level stream the reference model produces.
func sansShardEvents(evs []trace.Event) []trace.Event {
	out := make([]trace.Event, 0, len(evs))
	for _, e := range evs {
		if e.Type == trace.EvShardRound {
			continue
		}
		if e.Type == trace.EvGauge && len(e.Kind) >= 9 && e.Kind[:9] == "parallel/" {
			continue
		}
		out = append(out, e)
	}
	return out
}

func sameEvents(t *testing.T, label string, a, b []trace.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: event counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: event %d differs:\n  %s\n  %s", label, i, a[i], b[i])
		}
	}
}

// sameStats compares run statistics ignoring the executor-shape field.
func sameStats(t *testing.T, label string, a, b Stats) {
	t.Helper()
	a.Par, b.Par = ParallelStats{}, ParallelStats{}
	if a != b {
		t.Fatalf("%s: stats differ:\n  %s\n  %s", label, a, b)
	}
}

func runOnce(g *graph.Graph, cfg Config) (Stats, *graph.Graph, []trace.Event) {
	cap := &captureTracer{}
	cfg.Tracer = cap
	e := NewEngine(g, cfg)
	st := e.Run()
	return st, e.Graph(), cap.events
}

// referenceRun is the small model the executor is held to: one goroutine,
// nodes in ascending identifier order, no shards. A Memory round reads the
// round-start graph (a clone) while every node adds its chain edges — and
// an extremal node the wrap edge — to the live one; a Pure/LSN round is
// stepInPlace node after node.
func referenceRun(g *graph.Graph, cfg Config) (Stats, *graph.Graph, []trace.Event) {
	tr := &captureTracer{}
	cfg.Tracer = tr
	e := NewEngine(g, cfg)
	sink := &opSink{e: e, direct: true}
	lo, hi, ring := e.extremes()
	add := func(t trace.EventType, u, v ids.ID) { // one edge a Memory round accepted
		sink.addEdge()
		sink.observe(u)
		sink.observe(v)
		tr.Emit(trace.Event{T: int64(e.curRound), Type: t, Node: u, Peer: v})
	}
	for ; !e.Done() && e.curRound < 16*len(e.nodes)+1024; e.curRound++ {
		round := trace.Event{T: int64(e.curRound), Type: trace.EvRoundStart, Aux: cfg.Variant.String(), Value: float64(e.g.NumEdges())}
		tr.Emit(round)
		start := e.g.Clone()
		for _, v := range e.nodes {
			if cfg.Variant != Memory {
				e.stepInPlace(v, sink)
				continue
			}
			for _, c := range chainEdges(v, e.lineNeighborsInto(start, v, nil)) {
				if e.g.AddEdge(c.U, c.V) {
					add(trace.EvEdgeAdd, c.U, c.V)
				}
			}
			if ring && cfg.CloseRing && (v == lo || v == hi) && !start.HasEdge(lo, hi) && start.SupersetOfLine() && e.g.AddEdge(lo, hi) {
				add(trace.EvRingClosed, lo, hi)
			}
		}
		round.Type, round.Value = trace.EvRoundEnd, float64(e.g.NumEdges())
		tr.Emit(round)
		e.stats.Rounds = e.curRound + 1
	}
	e.stats.Converged = e.Done()
	return e.Stats(), e.g, tr.events
}

// TestParallelIndependentOfWorkers pins layer 1: with the shard partition
// held fixed, every worker count produces the same final graph, the same
// stats and the same trace stream (shard accounting included).
func TestParallelIndependentOfWorkers(t *testing.T) {
	g := randomConnected(400, 7)
	for _, v := range Variants() {
		for _, closeRing := range []bool{false, true} {
			base := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: closeRing,
				Executor: sim.ExecutorConfig{Workers: 1, Shards: 8}}
			refStats, refGraph, refEvents := runOnce(g, base)
			for _, workers := range []int{2, 4, 8} {
				cfg := base
				cfg.Executor.Workers = workers
				st, fg, evs := runOnce(g, cfg)
				label := v.String()
				if closeRing {
					label += "/ring"
				}
				if !fg.Equal(refGraph) {
					t.Fatalf("%s workers=%d: final graph differs from workers=1", label, workers)
				}
				sameStats(t, label, st, refStats)
				sameEvents(t, label, refEvents, evs)
			}
		}
	}
}

// TestZeroConfigIsDefaultExecutor pins the other half of layer 1: zero has
// no meaning of its own. At n=1500 the default partition has two shards,
// and a zero Config takes exactly the run of every explicit worker count —
// graph, stats and the full trace stream. Rounds are capped: equivalence
// holds round for round, convergence is not needed.
func TestZeroConfigIsDefaultExecutor(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	g := graph.RandomRegular(graph.MakeIDs(1500, graph.RandomIDs, r), 4, r)
	for _, v := range Variants() {
		for _, closeRing := range []bool{false, true} {
			zero := Config{Variant: v, CloseRing: closeRing, MaxRounds: 24}
			zStats, zGraph, zEvents := runOnce(g, zero)
			if zStats.Par.Shards != 2 || zStats.Par.Policy != "contiguous" {
				t.Fatalf("%s: zero Config ran %+v, want 2 contiguous shards", v, zStats.Par)
			}
			for _, workers := range []int{1, 2, 4} {
				cfg := zero
				cfg.Executor.Workers = workers
				st, fg, evs := runOnce(g, cfg)
				label := fmt.Sprintf("%s ring=%v workers=%d", v, closeRing, workers)
				if !fg.Equal(zGraph) {
					t.Fatalf("%s: final graph differs from the zero Config", label)
				}
				sameStats(t, label, st, zStats)
				sameEvents(t, label, zEvents, evs)
			}
		}
	}
}

// TestJacobiShardedMatchesLegacy pins layer 2 for Memory: the Jacobi
// executor reproduces the reference model bit for bit — graph, stats and
// protocol-level event stream — for every shard count.
func TestJacobiShardedMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		g := randomConnected(300, seed)
		for _, closeRing := range []bool{false, true} {
			legacy := Config{Variant: Memory, Scheduler: sim.Synchronous, CloseRing: closeRing}
			lStats, lGraph, lEvents := referenceRun(g, legacy)
			if !lStats.Converged {
				t.Fatalf("legacy memory run did not converge")
			}
			for _, shards := range []int{1, 3, 8, 64} {
				cfg := legacy
				cfg.Executor = sim.ExecutorConfig{Workers: 4, Shards: shards}
				st, fg, evs := runOnce(g, cfg)
				label := "memory"
				if closeRing {
					label += "/ring"
				}
				if !fg.Equal(lGraph) {
					t.Fatalf("%s shards=%d: final graph differs from legacy", label, shards)
				}
				sameStats(t, label, st, lStats)
				sameEvents(t, label, lEvents, sansShardEvents(evs))
			}
		}
	}
}

// TestAtomicShardOneMatchesLegacy pins layer 2 for Pure and LSN: a single
// shard degenerates to exactly the reference Gauss-Seidel schedule.
func TestAtomicShardOneMatchesLegacy(t *testing.T) {
	for _, v := range []Variant{Pure, LSN} {
		g := randomConnected(200, 17)
		for _, closeRing := range []bool{false, true} {
			legacy := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: closeRing}
			lStats, lGraph, lEvents := referenceRun(g, legacy)
			cfg := legacy
			cfg.Executor = sim.ExecutorConfig{Workers: 4, Shards: 1}
			st, fg, evs := runOnce(g, cfg)
			label := v.String()
			if closeRing {
				label += "/ring"
			}
			if !fg.Equal(lGraph) {
				t.Fatalf("%s: final graph differs from legacy", label)
			}
			sameStats(t, label, st, lStats)
			sameEvents(t, label, lEvents, sansShardEvents(evs))
		}
	}
}

// TestParallelConvergesAllVariants checks that the multi-shard schedule
// still reaches the variant's goal state and preserves the line invariant.
func TestParallelConvergesAllVariants(t *testing.T) {
	for _, v := range Variants() {
		for _, closeRing := range []bool{false, true} {
			g := randomConnected(250, 23)
			cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: closeRing,
				Executor: sim.ExecutorConfig{Workers: 4, Shards: 6}}
			st, fg, _ := runOnce(g, cfg)
			if !st.Converged {
				t.Fatalf("%s close=%v: did not converge: %s", v, closeRing, st)
			}
			if !fg.SupersetOfLine() {
				t.Fatalf("%s close=%v: final graph misses line edges", v, closeRing)
			}
			if closeRing && !fg.HasEdge(fg.Nodes()[0], fg.Nodes()[fg.NumNodes()-1]) {
				t.Fatalf("%s: wrap edge missing", v)
			}
			if v == Pure && closeRing && !fg.IsSortedRing() {
				t.Fatalf("pure/ring must end on the sorted ring")
			}
			if st.Par.Workers == 0 || st.Par.Shards != 6 {
				t.Fatalf("%s: executor shape not recorded: %+v", v, st.Par)
			}
		}
	}
}

// TestParallelSequentialDaemonFallsBack: the random-sequential daemon is
// inherently serial — always one shard, whatever Executor asks for — so
// neither Workers nor Shards nor the policy may change its run.
func TestParallelSequentialDaemonFallsBack(t *testing.T) {
	g := randomConnected(120, 5)
	ref := Config{Variant: LSN, Scheduler: sim.RandomSequential, Seed: 9}
	rStats, rGraph, rEvents := runOnce(g, ref)
	cfg := ref
	cfg.Executor = sim.ExecutorConfig{Workers: 8, Shards: 8, Partition: "locality"}
	st, fg, evs := runOnce(g, cfg)
	if !fg.Equal(rGraph) {
		t.Fatal("sequential daemon result changed under Executor")
	}
	if st.Par.Shards != 1 || st.Par.Workers != 1 || st.Par.BoundaryActivations+st.Par.WaveActivations != 0 {
		t.Fatalf("sequential daemon must run as one shard: %+v", st.Par)
	}
	sameStats(t, "daemon", st, rStats)
	sameEvents(t, "daemon", sansShardEvents(rEvents), sansShardEvents(evs))
}

// TestRandomSequentialDrawSequence pins the daemon's activation order: each
// round walks a fresh identity order permuted by one rng.Shuffle from
// rand.NewSource(Seed) — the draw sequence every committed
// random-sequential artifact was produced with.
func TestRandomSequentialDrawSequence(t *testing.T) {
	g := randomConnected(80, 31)
	st, _, evs := runOnce(g, Config{Variant: Pure, Scheduler: sim.RandomSequential, Seed: 9})
	nodes := g.Nodes()
	rng := rand.New(rand.NewSource(9))
	var want []ids.ID
	for r := 0; r < st.Rounds; r++ {
		order := append([]ids.ID(nil), nodes...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		want = append(want, order...)
	}
	var got []ids.ID
	for _, e := range evs {
		if e.Type == trace.EvNodeActivate {
			got = append(got, e.Node)
		}
	}
	if !st.Converged || st.Rounds < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("activation order drifted from the seeded permutation (%s)", st)
	}
}

// TestParallelEquivalence10k is the acceptance-criteria check at n=10_000:
// one-worker and four-worker runs of the executor produce
// bit-identical virtual graphs on all three variants. Rounds are capped —
// equivalence must hold round for round, convergence is not required here.
func TestParallelEquivalence10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node equivalence sweep skipped in -short mode")
	}
	r := rand.New(rand.NewSource(77))
	nodes := graph.MakeIDs(10_000, graph.RandomIDs, r)
	g := graph.RandomRegular(nodes, 4, r)
	for _, v := range Variants() {
		cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: true,
			MaxRounds: 12, Executor: sim.ExecutorConfig{Workers: 1}}
		seqStats, seqGraph, _ := runOnce(g, cfg)
		cfg.Executor.Workers = 4
		parStats, parGraph, _ := runOnce(g, cfg)
		if !parGraph.Equal(seqGraph) {
			t.Fatalf("%s: 10k-node parallel run diverged from sequential", v)
		}
		sameStats(t, v.String(), parStats, seqStats)
	}
}

// TestParallelRaceHammer drives the worker pool hard on all variants; its
// value is under `go test -race` (the Makefile race target), where any
// violation of the shard-confinement discipline becomes a report.
func TestParallelRaceHammer(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	nodes := graph.MakeIDs(1200, graph.RandomIDs, r)
	g := graph.ErdosRenyi(nodes, 0.02, r)
	for _, v := range Variants() {
		for _, shards := range []int{4, 16} {
			cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: true,
				Executor: sim.ExecutorConfig{Workers: 8, Shards: shards}, MaxRounds: 20}
			e := NewEngine(g, cfg)
			st := e.Run()
			if fg := e.Graph(); !fg.Connected() {
				t.Fatalf("%s shards=%d: connectivity lost (rounds=%d)", v, shards, st.Rounds)
			}
		}
	}
}
