package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// writeRoundTrace runs LSN on a small regular graph over four shards and
// writes its round-level trace to a file; profiled attaches the span
// profiler as well.
func writeRoundTrace(t *testing.T, profiled bool) string {
	t.Helper()
	g, err := graph.Generate(graph.TopoRegular, 400, graph.RandomIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "round.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewJSONLWriter(f)
	cfg := linearize.Config{Variant: linearize.LSN, Scheduler: sim.Synchronous, CloseRing: true,
		Executor: sim.ExecutorConfig{Workers: 2, Shards: 4}, Tracer: w}
	if profiled {
		cfg.Prof = perf.New(w)
	}
	linearize.Run(g, cfg)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// perfOutput runs `tracectl perf` on path and returns what it printed.
func perfOutput(t *testing.T, path string) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	err = cmdPerf([]string{path})
	os.Stdout = old
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPerfUnprofiledTrace: a round-level trace without the profiler has
// the shard attribution and no timing, so perf prints the activation
// table without a phase table or a busy column.
func TestPerfUnprofiledTrace(t *testing.T) {
	out := perfOutput(t, writeRoundTrace(t, false))
	for _, want := range []string{"-- shard cost attribution (4 shards) --", "boundary share:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	for _, unwanted := range []string{"phase wall time", "busy ms"} {
		if strings.Contains(out, unwanted) {
			t.Errorf("unprofiled output prints %q:\n%s", unwanted, out)
		}
	}
}

// TestPerfProfiledTrace: the profiler's spans add the phase table and the
// busy column.
func TestPerfProfiledTrace(t *testing.T) {
	out := perfOutput(t, writeRoundTrace(t, true))
	for _, want := range []string{"-- phase wall time --", "phase/prepare", "seq share", "-- shard cost attribution (4 shards) --", "busy ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
