// Benchmarks, one per reproduced table/figure (see DESIGN.md §3 and
// EXPERIMENTS.md). Each benchmark regenerates the corresponding
// experiment's rows at a bench-friendly scale; run the cmd/ tools for the
// full-size sweeps.
//
//	go test -bench=. -benchmem
package ssrlin

import (
	"io"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/chord"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/isprp"
	"repro/internal/linearize"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/ssr"
	"repro/internal/trace"
	"repro/internal/vring"
	"repro/internal/vrr"
)

// BenchmarkFig1LoopyResolution (E1): straighten the paper's Figure 1 loopy
// state with message-level linearization.
func BenchmarkFig1LoopyResolution(b *testing.B) {
	topo := vring.LoopyExample().ToGraph()
	for i := 0; i < b.N; i++ {
		net := phys.NewNetwork(sim.NewEngine(int64(i)), topo)
		cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Unbounded})
		if _, ok := cl.RunUntilConsistent(120000); !ok {
			b.Fatal("loopy state not resolved")
		}
		cl.Stop()
	}
}

// BenchmarkFig2RingMerge (E2): merge the Figure 2 separate rings via the
// E_v := E_p bridge.
func BenchmarkFig2RingMerge(b *testing.B) {
	topo := vring.SeparateRingsExample().ToGraph()
	topo.AddEdge(18, 21)
	for i := 0; i < b.N; i++ {
		net := phys.NewNetwork(sim.NewEngine(int64(i)), topo)
		cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Unbounded})
		if _, ok := cl.RunUntilConsistent(120000); !ok {
			b.Fatal("rings not merged")
		}
		cl.Stop()
	}
}

// BenchmarkFig3Trace (E3): the abstract linearization run behind Figure 3.
func BenchmarkFig3Trace(b *testing.B) {
	g := vring.LoopyExample().ToGraph()
	for i := 0; i < b.N; i++ {
		stats, _ := linearize.Run(g, linearize.Config{
			Variant: linearize.Pure, Scheduler: sim.Synchronous,
		})
		if !stats.Converged {
			b.Fatal("no convergence")
		}
	}
}

// BenchmarkLSNPowerLaw (E4): LSN rounds on an α=2 power-law graph; the
// paper quotes < 39 rounds.
func BenchmarkLSNPowerLaw(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(sizeName(n), func(b *testing.B) {
			g, err := graph.Generate(graph.TopoPowerLaw, n, graph.RandomIDs, int64(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, _ := linearize.Run(g, linearize.Config{
					Variant: linearize.LSN, Scheduler: sim.Synchronous, Seed: int64(i),
				})
				if !stats.Converged || stats.Rounds >= 39 {
					b.Fatalf("rounds=%d converged=%v", stats.Rounds, stats.Converged)
				}
				b.ReportMetric(float64(stats.Rounds), "rounds")
			}
		})
	}
}

// BenchmarkConvergenceShape (E5): rounds by variant at one size; the cmd
// tool sweeps sizes and fits the growth exponent.
func BenchmarkConvergenceShape(b *testing.B) {
	for _, v := range linearize.Variants() {
		b.Run(v.String(), func(b *testing.B) {
			g, err := graph.Generate(graph.TopoER, 400, graph.RandomIDs, 400)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, _ := linearize.Run(g, linearize.Config{
					Variant: v, Scheduler: sim.Synchronous, Seed: int64(i),
				})
				if !stats.Converged {
					b.Fatal("no convergence")
				}
				b.ReportMetric(float64(stats.Rounds), "rounds")
			}
		})
	}
}

// BenchmarkBootstrapMessages (E6): physical frames to consistency,
// ISPRP+flood vs linearization.
func BenchmarkBootstrapMessages(b *testing.B) {
	const n = 24
	b.Run("isprp+flood", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net := phys.NewNetwork(sim.NewEngine(int64(i)),
				mustTopo(b, graph.TopoER, n, int64(i)))
			cl := isprp.NewCluster(net, isprp.Config{EnableFlood: true})
			if _, ok := cl.RunUntilConsistent(sim.Time(n) * 4096); !ok {
				b.Fatal("no convergence")
			}
			cl.Stop()
			b.ReportMetric(float64(net.Counters().Total()), "msgs")
			b.ReportMetric(float64(net.Counters().Get(isprp.KindFlood)), "floodmsgs")
		}
	})
	b.Run("linearization", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net := phys.NewNetwork(sim.NewEngine(int64(i)),
				mustTopo(b, graph.TopoER, n, int64(i)))
			cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Bounded})
			if _, ok := cl.RunUntilConsistent(sim.Time(n) * 4096); !ok {
				b.Fatal("no convergence")
			}
			cl.Stop()
			b.ReportMetric(float64(net.Counters().Total()), "msgs")
			b.ReportMetric(0, "floodmsgs")
		}
	})
}

// BenchmarkSSRRouting (E7): all-pairs greedy routing on a converged ring.
func BenchmarkSSRRouting(b *testing.B) {
	net := phys.NewNetwork(sim.NewEngine(7), mustTopo(b, graph.TopoER, 20, 7))
	cl := ssr.NewCluster(net, ssr.Config{
		CacheMode: cache.Bounded, CloseRing: true, BothDirections: true,
	})
	if _, ok := cl.RunUntilConsistent(200000); !ok {
		b.Fatal("bootstrap failed")
	}
	cl.Stop()
	nodes := net.Topology().Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := nodes[i%len(nodes)]
		dst := nodes[(i+len(nodes)/2)%len(nodes)]
		if src == dst {
			continue
		}
		r := cl.RouteData(src, dst, 8192)
		if !r.Delivered {
			b.Fatalf("routing %s->%s failed", src, dst)
		}
		b.ReportMetric(r.Stretch(), "stretch")
	}
}

// BenchmarkStateSize (E8): fixed-point state of memory vs LSN.
func BenchmarkStateSize(b *testing.B) {
	for _, v := range []linearize.Variant{linearize.Memory, linearize.LSN} {
		b.Run(v.String(), func(b *testing.B) {
			g := mustTopo(b, graph.TopoER, 300, 300)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, _ := linearize.Run(g, linearize.Config{
					Variant: v, Scheduler: sim.Synchronous, Seed: int64(i),
				})
				if !stats.Converged {
					b.Fatal("no convergence")
				}
				b.ReportMetric(float64(stats.FinalEdges)/300, "edges/node")
				b.ReportMetric(float64(stats.PeakDegree), "peakdeg")
			}
		})
	}
}

// BenchmarkSelfStabilization (E9): recovery rounds after perturbing a
// converged line.
func BenchmarkSelfStabilization(b *testing.B) {
	g := mustTopo(b, graph.TopoER, 120, 120)
	stats, line := linearize.Run(g, linearize.Config{
		Variant: linearize.LSN, Scheduler: sim.Synchronous, Seed: 1,
	})
	if !stats.Converged {
		b.Fatal("bootstrap failed")
	}
	nodes := line.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perturbed := line.Clone()
		perturbed.AddEdge(nodes[i%10], nodes[len(nodes)-1-(i%7)])
		perturbed.AddEdge(nodes[2+(i%5)], nodes[len(nodes)/2])
		// Cut a line edge (the chords keep the graph connected) so the
		// damage actually violates the goal state.
		cut := 20 + (i % 60)
		perturbed.RemoveEdge(nodes[cut], nodes[cut+1])
		if !perturbed.Connected() {
			b.Fatal("perturbation disconnected the graph")
		}
		rec, _ := linearize.Run(perturbed, linearize.Config{
			Variant: linearize.LSN, Scheduler: sim.Synchronous, Seed: int64(i),
		})
		if !rec.Converged {
			b.Fatal("no recovery")
		}
		b.ReportMetric(float64(rec.Rounds), "rounds")
	}
}

// BenchmarkRingClosure (E10): discovery-based wrap-edge establishment.
func BenchmarkRingClosure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := phys.NewNetwork(sim.NewEngine(int64(i)), mustTopo(b, graph.TopoER, 20, int64(i)))
		cl := ssr.NewCluster(net, ssr.Config{
			CacheMode: cache.Bounded, CloseRing: true, BothDirections: true,
		})
		if _, ok := cl.RunUntilConsistent(200000); !ok {
			b.Fatal("closure failed")
		}
		cl.Stop()
		b.ReportMetric(float64(net.Counters().Get(ssr.KindDiscover)), "discover")
	}
}

// BenchmarkVRRBootstrap (E11): linearized VRR to consistency.
func BenchmarkVRRBootstrap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := phys.NewNetwork(sim.NewEngine(int64(i)), mustTopo(b, graph.TopoER, 20, int64(i)))
		cl := vrr.NewCluster(net, vrr.Config{CloseRing: true})
		if _, ok := cl.RunUntilConsistent(300000); !ok {
			b.Fatal("VRR bootstrap failed")
		}
		cl.Stop()
		b.ReportMetric(float64(net.Counters().Total()), "msgs")
	}
}

// BenchmarkSchedulerAblation (A1): synchronous vs random-sequential daemon.
func BenchmarkSchedulerAblation(b *testing.B) {
	for _, sched := range []sim.Scheduler{sim.Synchronous, sim.RandomSequential} {
		b.Run(sched.String(), func(b *testing.B) {
			g := mustTopo(b, graph.TopoER, 150, 150)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, _ := linearize.Run(g, linearize.Config{
					Variant: linearize.LSN, Scheduler: sched, Seed: int64(i),
				})
				if !stats.Converged {
					b.Fatal("no convergence")
				}
				b.ReportMetric(float64(stats.Rounds), "rounds")
			}
		})
	}
}

// BenchmarkTeardownAblation (A2): §4 optional teardown on/off.
func BenchmarkTeardownAblation(b *testing.B) {
	for _, tear := range []bool{false, true} {
		name := "keep"
		if tear {
			name = "teardown"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net := phys.NewNetwork(sim.NewEngine(int64(i)), mustTopo(b, graph.TopoER, 16, int64(i)))
				cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Unbounded, Teardown: tear})
				if _, ok := cl.RunUntilConsistent(16 * 4096); !ok {
					b.Fatal("no convergence")
				}
				cl.Stop()
				b.ReportMetric(float64(net.Counters().Total()), "msgs")
			}
		})
	}
}

// BenchmarkExperimentReports exercises the full experiment harness end to
// end at small scale — the same code paths the cmd/ tools run.
func BenchmarkExperimentReports(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Fig1Loopy(int64(i)).String()
		_ = exp.Fig3Trace().String()
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000:
		return "n" + string(rune('0'+n/1000)) + "k"
	default:
		return "small"
	}
}

func mustTopo(b *testing.B, t graph.Topology, n int, seed int64) *graph.Graph {
	b.Helper()
	g, err := graph.Generate(t, n, graph.RandomIDs, seed)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkChordVsSSR (E13): per-lookup physical cost of the Chord overlay
// versus SSR underlay routing on one converged deployment.
func BenchmarkChordVsSSR(b *testing.B) {
	topo := mustTopo(b, graph.TopoER, 24, 24)
	net := phys.NewNetwork(sim.NewEngine(24), topo)
	cl := ssr.NewCluster(net, ssr.Config{CacheMode: cache.Bounded, CloseRing: true, BothDirections: true})
	if _, ok := cl.RunUntilConsistent(200000); !ok {
		b.Fatal("SSR bootstrap failed")
	}
	cl.Stop()
	ring, err := chord.NewRing(topo.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	nodes := topo.Nodes()
	b.Run("chord", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src := nodes[i%len(nodes)]
			dst := nodes[(i+7)%len(nodes)]
			owner, path := ring.Lookup(src, dst)
			if owner != dst {
				b.Fatalf("lookup of member key missed: %v", owner)
			}
			b.ReportMetric(float64(len(path)), "overlayhops")
		}
	})
	b.Run("ssr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src := nodes[i%len(nodes)]
			dst := nodes[(i+7)%len(nodes)]
			if src == dst {
				continue
			}
			r := cl.RouteData(src, dst, 8192)
			if !r.Delivered {
				b.Fatal("SSR routing failed")
			}
			b.ReportMetric(float64(r.Hops), "physhops")
		}
	})
}

// BenchmarkTraceEmit: what one per-message event costs in each sink — the
// per-layer figure behind the price of leaving a full-level trace on.
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
