package trace_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/ssr"
	"repro/internal/trace"
	"repro/internal/vring"
)

// TestSSRBootstrapTraceReplay is the capture/replay acceptance path: a
// 256-node unit-disk SSR bootstrap streams its trace to a JSONL file, and
// the verdict and last sample folded from the file alone equal the live
// analysis teed into the probe.
func TestSSRBootstrapTraceReplay(t *testing.T) {
	const n = 256
	const seed = 7

	topo, err := graph.Generate(graph.TopoUnitDisk, n, graph.RandomIDs, seed)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "bootstrap.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewJSONLWriter(f)
	sink := trace.NewAnalysis()
	// Probe/round events stream to disk; per-message traffic only feeds
	// the in-memory aggregator, keeping the file at O(rounds).
	eng := sim.NewEngine(seed, sim.WithTracer(sink))
	net := phys.NewNetwork(eng, topo,
		phys.WithTracer(trace.Tee(trace.WithLevel(w, trace.LevelRound), sink)))

	c := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Bounded})
	verdict := trace.NewAnalysis()
	probe := &trace.Probe{Tracer: trace.Tee(w, sink, verdict)}
	c.AttachProbe(probe, 8)

	at, ok := c.RunUntilConsistent(2_000_000)
	if !ok {
		t.Fatalf("bootstrap not consistent by t=%d: %s", at, c.LineReport())
	}
	c.Stop()
	// One final sample so the series ends on the converged state.
	probe.Observe(verdict.Verdict().Probes, c.VirtualGraph())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Live-side checks on the teed analysis.
	v := verdict.Verdict()
	if v.Probes < 2 {
		t.Fatalf("only %d probe samples; interval too coarse", v.Probes)
	}
	if !v.ConnectedAll || !v.Converged {
		t.Errorf("connectivity invariant violated during bootstrap, or no convergence: %s", v)
	}
	last, _ := verdict.LastProbe()
	if missing, surplus := vring.LineDistance(c.VirtualGraph()); last.Missing != 0 || last.Missing != missing || last.Surplus != surplus {
		t.Errorf("last sample %+v does not describe the converged virtual graph (missing=%d surplus=%d)", last, missing, surplus)
	}
	if sink.TotalSent() == 0 {
		t.Error("the in-memory analysis saw no protocol messages")
	}

	// Replay: fold the JSONL file alone; it must tell the same story.
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	replay, err := trace.AnalyzeStream(trace.NewScanner(rf))
	if err != nil {
		t.Fatalf("replay decode: %v", err)
	}
	if rv := replay.Verdict(); rv != v {
		t.Errorf("replayed verdict %s != live %s", rv, v)
	}
	if rl, _ := replay.LastProbe(); rl != last {
		t.Errorf("replayed last sample %+v != live %+v", rl, last)
	}
}
