package linearize

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sim"
)

// FuzzLinearizeStep feeds arbitrary small graphs to the round executor and
// checks the paper's core safety property on every variant: linearization
// steps never disconnect a connected virtual graph (Lemma 1 — each replaced
// edge is covered by the new path), and a converged run over a connected
// input contains the sorted line. Every run must also end where the
// reference model (parallel_test.go) ends, on the same stats.
func FuzzLinearizeStep(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{4, 1, 0, 1, 0, 2, 0, 3})
	f.Add([]byte{16, 2, 5, 9})
	f.Add([]byte{2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		n := 2 + int(data[0])%14
		g := graph.New()
		for i := 1; i <= n; i++ {
			g.AddNode(ids.ID(i))
		}
		for i := 2; i+1 < len(data) && i < 64; i += 2 {
			u := ids.ID(1 + int(data[i])%n)
			v := ids.ID(1 + int(data[i+1])%n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		variant := Variants()[int(data[1])%3]
		cfg := Config{
			Variant:   variant,
			Scheduler: sim.Synchronous,
			MaxRounds: 48,
			Seed:      1,
		}
		stats, out := Run(g, cfg)
		if stats.FinalEdges != out.NumEdges() {
			t.Fatalf("stats report %d edges, graph has %d", stats.FinalEdges, out.NumEdges())
		}
		ref := referenceRun(t, g, cfg, nil)
		sameStats(t, variant.String(), stats, ref.stats)
		if !out.Equal(ref.final) {
			t.Fatalf("%s: final graph differs from the reference model", variant)
		}
		if !g.Connected() {
			return // per-component guarantees only; nothing global to assert
		}
		if !out.Connected() {
			t.Fatalf("%s linearization disconnected a connected graph after %d rounds",
				variant, stats.Rounds)
		}
		if stats.Converged && !graph.NewCSR(out).SupersetOfLine() {
			t.Fatalf("%s converged but the line is incomplete", variant)
		}
	})
}
