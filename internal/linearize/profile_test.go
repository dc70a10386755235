package linearize

// Determinism regression suite for the performance profiler (DESIGN.md
// §12): profiling is a side channel, so a profiled run and an unprofiled
// run of the same seed must produce byte-identical final graphs, stats
// and — after stripping EvSpan — identical trace streams.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sansSpans strips the profiler side channel from a trace stream.
func sansSpans(evs []trace.Event) []trace.Event {
	out := make([]trace.Event, 0, len(evs))
	for _, e := range evs {
		if e.Type != trace.EvSpan {
			out = append(out, e)
		}
	}
	return out
}

// TestProfiledRunIsSideEffectFree pins the profiler determinism contract
// for every variant on the sharded executor: same graph, same stats, and
// the profiled trace minus spans equals the unprofiled trace.
func TestProfiledRunIsSideEffectFree(t *testing.T) {
	g := randomConnected(400, 7)
	for _, v := range Variants() {
		for _, closeRing := range []bool{false, true} {
			cfg := Config{Variant: v, Scheduler: sim.Synchronous, CloseRing: closeRing,
				Executor: sim.ExecutorConfig{Workers: 2, Shards: 4}}
			plainStats, plainGraph, plainEvents := runOnce(g.Clone(), cfg)

			profCap := &captureTracer{}
			profCfg := cfg
			profCfg.Tracer = profCap
			profCfg.Prof = perf.New(profCap)
			e := NewEngine(g.Clone(), profCfg)
			profStats := e.Run()

			label := v.String()
			if closeRing {
				label += "/ring"
			}
			if !e.Graph().Equal(plainGraph) {
				t.Fatalf("%s: profiled final graph differs from unprofiled", label)
			}
			sameStats(t, label, profStats, plainStats)
			sameEvents(t, label, sansSpans(profCap.events), plainEvents)

			spans := 0
			for _, ev := range profCap.events {
				if ev.Type == trace.EvSpan {
					spans++
				}
			}
			if spans == 0 {
				t.Fatalf("%s: profiled run emitted no spans", label)
			}
		}
	}
}

// TestProfiledTraceFoldsIntoPerfReport pins the live-analysis path: a
// profiled sharded run teed into an Analysis yields a PerfReport with
// phase spans, per-shard attribution and the boundary-vs-interior
// activation split the ROADMAP asks for.
func TestProfiledTraceFoldsIntoPerfReport(t *testing.T) {
	g := randomConnected(400, 7)
	an := trace.NewAnalysis()
	cfg := Config{Variant: LSN, Scheduler: sim.Synchronous, CloseRing: true,
		Executor: sim.ExecutorConfig{Workers: 2, Shards: 4}, Tracer: an, Prof: perf.New(an)}
	st, _ := Run(g, cfg)
	if !st.Converged {
		t.Fatalf("run did not converge: %s", st)
	}

	p := an.Perf()
	if p.Empty() {
		t.Fatal("PerfReport is empty on a profiled run")
	}
	want := map[string]bool{"phase/begin": true, "phase/prepare": true,
		"phase/execute": true, "phase/finish": true, "phase/end": true}
	for _, s := range p.Spans {
		delete(want, s.Name)
		if s.Count <= 0 {
			t.Errorf("span %s has count %d", s.Name, s.Count)
		}
	}
	for name := range want {
		t.Errorf("missing span %s", name)
	}
	if len(p.Shards) != 4 {
		t.Fatalf("got %d shard rows, want 4", len(p.Shards))
	}
	acts := p.ActivationTotals()
	var total int64
	for _, phase := range []string{"interior", "boundary"} {
		total += acts[phase]
	}
	if got := st.Par.InteriorActivations + st.Par.BoundaryActivations; total != got {
		t.Fatalf("activation attribution %d != executor total %d", total, got)
	}
	if acts["boundary"] != st.Par.BoundaryActivations {
		t.Fatalf("boundary attribution %d != stats %d", acts["boundary"], st.Par.BoundaryActivations)
	}
}

// TestProfiledPhaseOrder pins the profiler's observation order, round by
// round, for each executor path at one and four workers: the begin phase
// (Memory's round 0 freezes its image inside it), each parallel phase
// followed by its shards' times in shard order, finish (Memory's merge
// inside it), end, and the round's allocator deltas. The spans a phase
// contains are emitted before the phase's own, which closes after them.
// The imbalance ratio is left out: it is only emitted when the shards'
// measured busy time is nonzero.
func TestProfiledPhaseOrder(t *testing.T) {
	shards := func(phase string, k int) []string {
		var out []string
		for i := 0; i < k; i++ {
			out = append(out, fmt.Sprintf("shard/%s:%d", phase, i))
		}
		return out
	}
	tail := []string{"phase/end", "allocs", "mallocs", "gc"}
	g, err := graph.Generate(graph.TopoRegular, 300, graph.RandomIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		round func(round int) []string
	}{
		{"memory", Config{Variant: Memory, Executor: sim.ExecutorConfig{Shards: 2}}, func(round int) []string {
			var r []string
			if round == 0 {
				r = append(r, "snapshot/rebuild")
			}
			r = append(r, "phase/begin", "phase/prepare")
			r = append(r, shards("prepare", 2)...)
			return append(append(r, "snapshot/delta", "phase/finish"), tail...)
		}},
		{"lsn", Config{Variant: LSN, Executor: sim.ExecutorConfig{Shards: 4}}, func(int) []string {
			r := append([]string{"phase/begin", "phase/prepare"}, shards("prepare", 4)...)
			r = append(append(r, "phase/execute"), shards("execute", 4)...)
			return append(append(r, "phase/finish"), tail...)
		}},
		{"daemon", Config{Variant: LSN, Scheduler: sim.RandomSequential, Seed: 9}, func(int) []string {
			r := append([]string{"phase/begin", "phase/prepare"}, shards("prepare", 1)...)
			r = append(append(r, "phase/execute"), shards("execute", 1)...)
			return append(append(r, "phase/finish"), tail...)
		}},
	} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers=%d", tc.name, workers)
			rec := &captureTracer{}
			cfg := tc.cfg
			cfg.Executor.Workers = workers
			cfg.Prof = perf.New(rec)
			st, _ := Run(g.Clone(), cfg)
			if !st.Converged || st.Rounds < 2 {
				t.Fatalf("%s: want a converged run of several rounds: %s", label, st)
			}
			var want, got []string
			for r := 0; r < st.Rounds; r++ {
				want = append(want, tc.round(r)...)
			}
			at := int64(0)
			for _, ev := range rec.events {
				if ev.T < at {
					t.Fatalf("%s: span of round %d after round %d", label, ev.T, at)
				}
				at = ev.T
				switch {
				case ev.Kind == "imbalance":
				case strings.HasPrefix(ev.Kind, "shard/"):
					got = append(got, ev.Kind+":"+ev.Aux)
				default:
					got = append(got, ev.Kind)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: span order\n got %v\nwant %v", label, got, want)
			}
		}
	}
}

// TestSeqAndParCountPhasesOnce: on a profiled Memory run, whose snapshot
// spans nest inside phase/begin and phase/finish, the sequential and the
// parallel share together are exactly the phase/* spans.
func TestSeqAndParCountPhasesOnce(t *testing.T) {
	an := trace.NewAnalysis()
	g := randomConnected(400, 7)
	st, _ := Run(g, Config{Variant: Memory, Executor: sim.ExecutorConfig{Workers: 2, Shards: 4}, Prof: perf.New(an)})
	if !st.Converged {
		t.Fatalf("run did not converge: %s", st)
	}
	p := an.Perf()
	var phases float64
	snapshots := 0
	for _, s := range p.Spans {
		switch {
		case strings.HasPrefix(s.Name, "phase/"):
			phases += s.TotalNs
		case strings.HasPrefix(s.Name, "snapshot/"):
			snapshots++
		}
	}
	if snapshots != 2 {
		t.Fatalf("want snapshot/rebuild and snapshot/delta spans, got %+v", p.Spans)
	}
	if got := p.SeqNs() + p.ParNs(); got != phases {
		t.Fatalf("SeqNs+ParNs = %g, the phase/* spans sum to %g", got, phases)
	}
}
