// Micro-benchmarks of the layers the layered benchmark (benchmark/) times
// end to end: trace sinks, graph generation and mutation, the Memory round
// and the CSR merge. The experiments themselves are `ssrsim -mode <m>`,
// held byte for byte by cmd/ssrsim's TestModesReproduceCommittedResults.
//
//	go test -run '^$' -bench . -benchmem .
package ssrlin

import (
	"io"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/sim"
	"repro/internal/trace"
)

func mustTopo(b *testing.B, t graph.Topology, n int, seed int64) *graph.Graph {
	b.Helper()
	g, err := graph.Generate(t, n, graph.RandomIDs, seed)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTraceEmit: what one per-message event costs in each sink — the
// per-layer figure behind the price of leaving a full-level trace on. The
// JSONL sink is flushed inside the timed region, so its ns/op covers the
// encoder goroutine's work too, not only Emit's handoff.
func BenchmarkTraceEmit(b *testing.B) {
	ev := trace.Event{T: 1234, Type: trace.EvMsgSend, Node: 0x1234567890abcdef, Peer: 0xfedcba0987654321, Kind: "ssr:notify", Value: 1}
	for _, sink := range []struct {
		name string
		tr   trace.Tracer
	}{
		{"recorder", &trace.Recorder{}},
		{"stats", trace.NewStatsSink()},
		{"jsonl", trace.NewJSONLWriter(io.Discard)},
	} {
		b.Run(sink.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink.tr.Emit(ev)
			}
			if w, ok := sink.tr.(*trace.JSONLWriter); ok {
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGeneratePowerLaw: set-up cost of the E4 input — configuration-
// model pairing into sorted rows (the hub's row is the long one) plus the
// component patch-up of RandomSpanningConnected.
func BenchmarkGeneratePowerLaw(b *testing.B) {
	for _, n := range []int{4000, 16000} {
		b.Run("n"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustTopo(b, graph.TopoPowerLaw, n, int64(i+1))
			}
		})
	}
}

// BenchmarkGraphAddRemoveEdge: one ordered insert and delete of an absent
// edge between random nodes of a power-law graph; the graph is unchanged
// after every iteration.
func BenchmarkGraphAddRemoveEdge(b *testing.B) {
	g := mustTopo(b, graph.TopoPowerLaw, 4000, 1)
	nodes := g.Nodes()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]
		if g.AddEdge(u, v) {
			g.RemoveEdge(u, v)
		}
	}
}

// BenchmarkMemoryRegular: linearization with memory on a 4-regular graph of
// 6000 nodes — the layered benchmark's lin-memory-regular input — on one
// worker and on GOMAXPROCS workers. The whole round runs on the dense
// graph.CSR image (DESIGN.md §9).
func BenchmarkMemoryRegular(b *testing.B) {
	g := mustTopo(b, graph.TopoRegular, 6000, 1)
	for _, workers := range []int{1, 0} {
		name := "workers1"
		if workers == 0 {
			name = "gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats, _ := linearize.Run(g, linearize.Config{
					Variant: linearize.Memory, Executor: sim.ExecutorConfig{Workers: workers},
				})
				if !stats.Converged {
					b.Fatal("no convergence")
				}
			}
		})
	}
}

// BenchmarkCSRMerge: one CSR.WithEdges of a 5 % delta of absent edges onto
// the final graph of a BenchmarkMemoryRegular run.
func BenchmarkCSRMerge(b *testing.B) {
	_, final := linearize.Run(mustTopo(b, graph.TopoRegular, 6000, 1), linearize.Config{Variant: linearize.Memory})
	csr := graph.NewCSR(final)
	nodes := final.Nodes()
	r := rand.New(rand.NewSource(1))
	var adds []graph.Edge
	for len(adds) < final.NumEdges()/20 {
		if u, v := nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]; u != v && !csr.HasEdge(u, v) {
			adds = append(adds, graph.NewEdge(u, v))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if csr.WithEdges(adds, 1).NumEdges() <= csr.NumEdges() {
			b.Fatal("delta not applied")
		}
	}
}
