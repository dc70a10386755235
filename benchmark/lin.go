package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vring"
)

// linSpec is a round-model workload: generate a physical topology, then
// linearize.Run it to the sorted line (ring, with closeRing) on the sharded
// executor with W workers.
type linSpec struct {
	variant   linearize.Variant
	topo      graph.Topology
	n, tinyN  int
	closeRing bool
	policies  bool // extras: time one run under each partition policy
}

// linMaxRounds bounds a run. Runs that converge take under 30 rounds at
// these sizes; LSN livelocks on rare inputs (README, "Baseline
// observations"), and this is where such an input is recognised
// (repOut.stalled).
const linMaxRounds = 128

func (s linSpec) config(workers int, partition string) linearize.Config {
	return linearize.Config{
		Variant:   s.variant,
		CloseRing: s.closeRing,
		MaxRounds: linMaxRounds,
		Executor:  sim.ExecutorConfig{Workers: workers, Partition: partition},
	}
}

// memDelta is what the Go runtime did over a measured section.
type memDelta struct {
	allocMB, mallocs, gcCycles, gcPauseMs float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := readMem()
	return memDelta{
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		mallocs:   float64(m1.Mallocs - m0.Mallocs),
		gcCycles:  float64(m1.NumGC - m0.NumGC),
		gcPauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
}

func (d memDelta) into(v values, steps float64) {
	v["alloc_mb"] = d.allocMB
	v["go.gc_cycles"] = d.gcCycles
	v["go.gc_pause_total_ms"] = d.gcPauseMs
	if steps > 0 {
		v["go.mallocs_per_step"] = d.mallocs / steps
	}
}

// timedRun is one linearize.Run with its wall time. With a recorder the
// run and each of its rounds (the intervals between OnRound calls) are
// spans.
func timedRun(g *graph.Graph, cfg linearize.Config, rec *recorder) (linearize.Stats, *graph.Graph, time.Duration) {
	if rec != nil {
		cfg.OnRound = func(int, *graph.Graph) {
			rec.end()
			rec.begin(spLinRound)
		}
	}
	rec.begin(spLinRun)
	rec.begin(spLinRound)
	t0 := time.Now()
	stats, final := linearize.Run(g, cfg)
	wall := time.Since(t0)
	rec.drop() // the round opened by the last OnRound call never ran
	rec.end()
	return stats, final, wall
}

// lineOracle verifies a final virtual graph without the engine's own Done
// check: the CSR snapshot holds every consecutive-identifier edge, the
// graph is connected, and the wrap edge is there when the ring is closed.
func lineOracle(final *graph.Graph, closeRing bool) bool {
	if !graph.NewCSR(final).SupersetOfLine() || !final.Connected() {
		return false
	}
	nodes := final.Nodes()
	if closeRing && len(nodes) > 2 && !final.HasEdge(nodes[0], nodes[len(nodes)-1]) {
		return false
	}
	return true
}

func (s linSpec) rep(c *ctx, seed int64, rec *recorder) *repOut {
	out := newRepOut()
	n := c.size(s.n, s.tinyN)

	rec.begin(spSetup)
	rec.begin(spGenerate)
	t0 := time.Now()
	g, err := graph.Generate(s.topo, n, graph.RandomIDs, seed)
	setup := time.Since(t0)
	rec.end()
	rec.end()
	if !out.check(err == nil, "graph.Generate: %v", err) {
		return out
	}

	cfg := s.config(c.workers, "")
	var an *trace.Analysis
	if rec != nil {
		an = trace.NewAnalysis()
		cfg.Prof = perf.New(an)
	}
	m0 := readMem()
	stats, final, wall := timedRun(g, cfg, rec)
	mem := memSince(m0)

	// A run that has not converged by linMaxRounds stays in the run with
	// what it cost up to there (repOut.stalled).
	if stats.Converged {
		out.check(lineOracle(final, s.closeRing), "final graph fails the line oracle")
	} else {
		out.stalled = true
	}
	out.final = final

	v := out.v
	edgeOps := float64(stats.EdgesAdded + stats.EdgesDropped)
	v["setup_s"] = setup.Seconds()
	v["wall_s"] = wall.Seconds()
	v["sim_time"] = float64(stats.Rounds)
	v["msgs_per_node"] = edgeOps / float64(n)
	mem.into(v, float64(stats.Rounds*n))

	v["graph.generate_s"] = setup.Seconds()
	v["linearize.run_s"] = wall.Seconds()
	v["linearize.rounds"] = float64(stats.Rounds)
	v["linearize.edge_ops"] = edgeOps
	v["linearize.edge_ops_per_s"] = edgeOps / wall.Seconds()
	v["linearize.peak_degree"] = float64(stats.PeakDegree)
	v["linearize.final_edges"] = float64(stats.FinalEdges)
	par := stats.Par
	v["sim.shard.interior_activations"] = float64(par.InteriorActivations)
	v["sim.shard.wave_activations"] = float64(par.WaveActivations)
	v["sim.shard.boundary_activations"] = float64(par.BoundaryActivations)
	if all := par.InteriorActivations + par.WaveActivations + par.BoundaryActivations; all > 0 {
		v["sim.shard.boundary_share"] = float64(par.BoundaryActivations) / float64(all)
	}

	if rec != nil {
		rounds := rec.durations(spLinRound, 0)
		v["linearize.round_s_p50"] = quantile(rounds, 0.5)
		v["linearize.round_s_max"] = quantile(rounds, 1)
		p := an.Perf()
		for _, sp := range p.Spans {
			sec := sp.TotalNs / 1e9
			switch sp.Name {
			case "phase/prepare":
				v["sim.shard.prepare_s"] = sec
			case "phase/execute":
				v["sim.shard.execute_s"] = sec
			case "phase/finish":
				v["sim.shard.finish_s"] = sec
			case "snapshot/delta":
				v["graph.csr.snapshot_delta_s"] = sec
			case "snapshot/rebuild":
				v["graph.csr.snapshot_rebuild_s"] = sec
			}
		}
		v["sim.shard.seq_share"] = p.SeqShare()
		v["sim.shard.imbalance_mean"] = p.ImbalanceMean
	}
	return out
}

// extras compares executor configurations on the input of seed and times
// the graph layer's exported functions on the finished run's final graph.
func (s linSpec) extras(c *ctx, seed int64, last *repOut) *repOut {
	out := newRepOut()
	v := out.v
	g, err := graph.Generate(s.topo, c.size(s.n, s.tinyN), graph.RandomIDs, seed)
	if !out.check(err == nil, "graph.Generate: %v", err) {
		return out
	}
	wallW := last.v["wall_s"]

	_, final1, wall1 := timedRun(g, s.config(1, ""), nil)
	out.check(final1.Equal(last.final), "Workers:1 and Workers:%d final graphs differ", c.workers)
	v["linearize.par_speedup"] = wall1.Seconds() / wallW

	_, _, legacy := timedRun(g, s.config(0, ""), nil)
	v["linearize.legacy_wall_s"] = legacy.Seconds()

	if s.policies {
		v["sim.partition.wall_s.contiguous"] = wallW // "" is contiguous
		for _, policy := range []string{"degree-balanced", "locality"} {
			st, fin, wall := timedRun(g, s.config(c.workers, policy), nil)
			out.check(st.Converged && lineOracle(fin, s.closeRing), "partition %s: not consistent", policy)
			v["sim.partition.wall_s."+policy] = wall.Seconds()
		}
	}
	graphMicros(c, last.final, seed, v)
	return out
}

// graphMicros times graph and vring functions on a finished run's graph.
func graphMicros(c *ctx, final *graph.Graph, seed int64, v values) {
	edges := float64(final.NumEdges())
	nodes := final.Nodes()
	rng := rand.New(rand.NewSource(seed))
	pick := func() graph.Edge {
		return graph.NewEdge(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))])
	}

	var csr *graph.CSR
	v["graph.csr.build_ns_edge"] = c.perOp(func() { csr = graph.NewCSR(final) }) / edges

	// A 5 % delta of edges absent from the snapshot, as WithEdges expects.
	var adds []graph.Edge
	for len(adds) < int(edges)/20+1 {
		if e := pick(); e.U != e.V && !csr.HasEdge(e.U, e.V) {
			adds = append(adds, e)
		}
	}
	var merged *graph.CSR
	perMerge := c.perOp(func() { merged = csr.WithEdges(adds, c.workers) })
	v["graph.csr.with_edges_ns_edge"] = perMerge / float64(merged.NumEdges())

	hits := 0
	v["graph.csr.has_edge_ns_op"] = c.perOp(func() {
		if e := pick(); csr.HasEdge(e.U, e.V) {
			hits++
		}
	})

	var clone *graph.Graph
	v["graph.clone_s"] = c.perOp(func() { clone = final.Clone() }) / 1e9

	// AddEdge + HasEdge + RemoveEdge of an absent edge leaves clone as it was.
	v["graph.adj.add_remove_ns_op"] = c.perOp(func() {
		e := adds[rng.Intn(len(adds))]
		clone.AddEdge(e.U, e.V)
		if clone.HasEdge(e.U, e.V) {
			clone.RemoveEdge(e.U, e.V)
		}
	}) / 3

	var rep vring.LineReport
	v["vring.analyze_line_ms"] = c.perOp(func() { rep = vring.AnalyzeLine(final) }) / 1e6
	sink = hits + rep.Components
}

// sink keeps results of measured calls alive so the compiler cannot drop them.
var sink int
