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
)

// TestSSRBootstrapTraceReplay is the capture/replay acceptance path: a
// 256-node unit-disk SSR bootstrap streams its trace to a JSONL file, and
// the convergence series is reconstructed purely from the decoded events.
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
	sink := trace.NewStatsSink()
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
	probe.Observe(probe.Len(), c.VirtualGraph())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Live-side checks on the probe itself.
	if probe.Len() < 2 {
		t.Fatalf("only %d probe samples; interval too coarse", probe.Len())
	}
	last, _ := probe.Last()
	if last.Missing != 0 {
		t.Errorf("converged virtual graph still missing %d line edges", last.Missing)
	}
	if v := verdict.Verdict(); !v.ConnectedAll || !v.Converged {
		t.Errorf("connectivity invariant violated during bootstrap, or no convergence: %s", v)
	}
	if sink.TotalSent() == 0 {
		t.Error("stats sink saw no protocol messages")
	}

	// Replay: decode the JSONL file and rebuild the series from events only.
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	events, err := trace.ReadJSONL(rf)
	if err != nil {
		t.Fatalf("replay decode: %v", err)
	}
	series := trace.SeriesFromEvents(events)

	dist, okD := series["distance"]
	conn, okC := series["connected"]
	if !okD || !okC {
		t.Fatalf("replayed series missing keys; have %d events", len(events))
	}
	if len(dist.Y) != probe.Len() {
		t.Fatalf("replayed %d distance points, probe recorded %d", len(dist.Y), probe.Len())
	}
	for i, s := range probe.Samples() {
		if int(dist.Y[i]) != s.Distance() {
			t.Errorf("sample %d: replayed distance %v != live %d", i, dist.Y[i], s.Distance())
		}
	}
	// The invariant must be checkable from the replay alone.
	for i, y := range conn.Y {
		if y != 1 {
			t.Errorf("replayed connectivity broke at sample %d", i)
		}
	}
	if got := int(dist.Y[len(dist.Y)-1]); got != last.Distance() {
		t.Errorf("replayed final distance %d != live %d", got, last.Distance())
	}
}
