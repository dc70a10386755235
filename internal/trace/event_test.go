package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/linearize"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vring"
)

func TestEventTypeRoundTrip(t *testing.T) {
	for ev := trace.EvMsgSend; ev <= trace.EvProbe; ev++ {
		name := ev.String()
		back, ok := trace.ParseEventType(name)
		if !ok || back != ev {
			t.Errorf("round trip %d: name=%q back=%v ok=%v", ev, name, back, ok)
		}
	}
	if _, ok := trace.ParseEventType("bogus"); ok {
		t.Error("bogus name parsed")
	}
}

func TestRecorderRingBuffer(t *testing.T) {
	r := &trace.Recorder{Cap: 4}
	for i := 0; i < 10; i++ {
		r.Emit(trace.Event{T: int64(i), Type: trace.EvCounter})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.T != int64(6+i) {
			t.Errorf("slot %d: T=%d, want %d (oldest-first ring order)", i, e.T, 6+i)
		}
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Errorf("total=%d dropped=%d", r.Total(), r.Dropped())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewJSONLWriter(&buf)
	in := []trace.Event{
		{T: 1, Type: trace.EvMsgSend, Node: 3, Peer: 9, Kind: "ssr:notify", Value: 2},
		{T: 2, Type: trace.EvMsgDrop, Node: 3, Peer: 9, Kind: "ssr:notify", Aux: "loss"},
		{T: 5, Type: trace.EvProbe, Kind: "missing", Value: 7},
	}
	for _, e := range in {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if w.Count() != int64(len(in)) {
		t.Errorf("count=%d", w.Count())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(in) {
		t.Errorf("lines=%d, want %d", lines, len(in))
	}
	out, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("event %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestReadJSONLMalformed(t *testing.T) {
	evs, err := trace.ReadJSONL(strings.NewReader("{\"t\":1,\"ev\":\"probe\"}\nnot json\n"))
	if err == nil {
		t.Fatal("want error on malformed line")
	}
	if len(evs) != 1 {
		t.Errorf("decoded %d events before error, want 1", len(evs))
	}
}

func TestLevelFilterAndTee(t *testing.T) {
	coarse, fine := &trace.Recorder{}, &trace.Recorder{}
	tr := trace.Tee(trace.WithLevel(coarse, trace.LevelRound), trace.WithLevel(fine, trace.LevelMsg))
	tr.Emit(trace.Event{Type: trace.EvMsgSend})
	tr.Emit(trace.Event{Type: trace.EvRoundEnd})
	tr.Emit(trace.Event{Type: trace.EvProbe})
	if got := len(coarse.Events()); got != 2 {
		t.Errorf("coarse saw %d, want 2 (round-level only)", got)
	}
	if got := len(fine.Events()); got != 3 {
		t.Errorf("fine saw %d, want 3", got)
	}
	if trace.Tee(nil, nil) != nil {
		t.Error("Tee of nils must collapse to nil (disabled fast path)")
	}
	if trace.WithLevel(coarse, trace.LevelOff) != nil {
		t.Error("LevelOff must collapse to nil")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]trace.Level{"off": trace.LevelOff, "round": trace.LevelRound, "msg": trace.LevelMsg} {
		if got, ok := trace.ParseLevel(s); !ok || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, ok, want)
		}
	}
	for _, s := range []string{"coarse", "fine", "all", ""} {
		if _, ok := trace.ParseLevel(s); ok {
			t.Errorf("ParseLevel(%q) accepted", s)
		}
	}
}

// The TestStatsSink* tests keep their names from when a separate stats sink
// held these totals; they now hold trace.Analysis, the one fold of events.
func TestStatsSinkAggregates(t *testing.T) {
	s := trace.NewAnalysis()
	s.Emit(trace.Event{Type: trace.EvMsgSend, Kind: "ssr:notify"})
	s.Emit(trace.Event{Type: trace.EvMsgSend, Kind: "ssr:notify"})
	s.Emit(trace.Event{Type: trace.EvMsgSend, Kind: "ssr:ack"})
	s.Emit(trace.Event{Type: trace.EvMsgDrop, Kind: "ssr:ack", Aux: "loss"})
	s.Emit(trace.Event{Type: trace.EvCounter, Kind: "isprp:flood-origin", Value: 1})
	s.Emit(trace.Event{Type: trace.EvGauge, Kind: "queue", Value: 5})
	s.Emit(trace.Event{Type: trace.EvGauge, Kind: "queue", Value: 3})
	s.Emit(trace.Event{Type: trace.EvRoundEnd})
	if s.TotalSent() != 3 {
		t.Errorf("total sent %d", s.TotalSent())
	}
	tax := s.Taxonomy()
	if len(tax) != 2 || tax[0].Kind != "ssr:ack" || tax[0].Count != 1 || tax[1].Count != 2 {
		t.Errorf("taxonomy %+v", tax)
	}
	if d := s.DropTotals(); len(d) != 1 || d[0].Kind != "loss" {
		t.Errorf("drops %+v", d)
	}
	if c := s.Counters(); len(c) != 1 || c[0] != (trace.KindTotal{Kind: "isprp:flood-origin", Count: 1}) {
		t.Errorf("counters %+v", c)
	}
	if r := s.Verdict().Rounds; r != 1 {
		t.Errorf("rounds %d", r)
	}
	tab := trace.TaxonomyTable(s.Taxonomy()).String()
	if !strings.Contains(tab, "ssr:notify") || !strings.Contains(tab, "TOTAL") {
		t.Errorf("taxonomy table:\n%s", tab)
	}
}

func TestProbeOnLoopyConvergence(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewJSONLWriter(&buf)
	live := trace.NewAnalysis()
	p := &trace.Probe{Tracer: trace.Tee(live, w)}
	g := vring.LoopyExample().ToGraph()
	p.Observe(0, g) // pre-run sample: loopy state is far from the line
	if first, ok := live.LastProbe(); !ok || first.Missing+first.Surplus == 0 {
		t.Errorf("loopy state should start at nonzero distance: %+v (ok=%v)", first, ok)
	}
	stats, final := linearize.Run(g, linearize.Config{
		Variant:   linearize.Memory,
		Scheduler: sim.Synchronous,
		OnRound:   p.Observe,
	})
	if !stats.Converged {
		t.Fatalf("did not converge: %s", stats)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	v := live.Verdict()
	if !v.ConnectedAll || !v.Converged || v.Probes != stats.Rounds+1 {
		t.Errorf("connectivity must hold every round, the run converge and every round be sampled (want %d probes): %s", stats.Rounds+1, v)
	}
	last, _ := live.LastProbe()
	missing, surplus := vring.LineDistance(final)
	if last.Missing != 0 || last.Missing != missing || last.Surplus != surplus || last.Edges != final.NumEdges() {
		t.Errorf("last sample %+v does not describe the final graph (missing=%d surplus=%d edges=%d)",
			last, missing, surplus, final.NumEdges())
	}
	// The JSONL replay folds to the same verdict and last sample.
	replay, err := trace.AnalyzeStream(trace.NewScanner(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if rv := replay.Verdict(); rv != v {
		t.Errorf("replayed verdict %s != live %s", rv, v)
	}
	if rl, _ := replay.LastProbe(); rl != last {
		t.Errorf("replayed last sample %+v != live %+v", rl, last)
	}
}

func TestLineDistance(t *testing.T) {
	nodes := []ids.ID{1, 4, 9, 13}
	line := graph.Line(nodes)
	if m, s := vring.LineDistance(line); m != 0 || s != 0 {
		t.Errorf("line: missing=%d surplus=%d", m, s)
	}
	ring := graph.Ring(nodes)
	if m, s := vring.LineDistance(ring); m != 0 || s != 0 {
		t.Errorf("sorted ring (wrap edge exempt): missing=%d surplus=%d", m, s)
	}
	g := graph.Line(nodes)
	g.RemoveEdge(4, 9)
	g.AddEdge(1, 9)
	if m, s := vring.LineDistance(g); m != 1 || s != 1 {
		t.Errorf("perturbed: missing=%d surplus=%d, want 1,1", m, s)
	}
}

func TestSimEngineTracing(t *testing.T) {
	rec := &trace.Recorder{}
	eng := sim.NewEngine(1, sim.WithTracer(rec))
	fired := 0
	eng.After(1, func() { fired++ })
	eng.After(2, func() { fired++ })
	cancelled := eng.After(3, func() { fired++ })
	cancelled.Cancel()
	cancelled.Cancel() // idempotent: must not double-count
	eng.Run(0)
	if fired != 2 {
		t.Fatalf("fired=%d", fired)
	}
	// A firing emits nothing; the one cancellation emits one event.
	if evs := rec.Events(); len(evs) != 1 || evs[0].Type != trace.EvSimCancel {
		t.Errorf("events = %v, want exactly one sim-cancel", evs)
	}
}

func TestLinearizeTracerEvents(t *testing.T) {
	rec := &trace.Recorder{}
	g := vring.LoopyExample().ToGraph()
	stats, _ := linearize.Run(g, linearize.Config{
		Variant:   linearize.LSN,
		Scheduler: sim.Synchronous,
		CloseRing: true,
		Tracer:    rec,
	})
	if !stats.Converged {
		t.Fatalf("did not converge: %s", stats)
	}
	starts := rec.Filter(trace.EvRoundStart)
	ends := rec.Filter(trace.EvRoundEnd)
	if len(starts) != stats.Rounds || len(ends) != stats.Rounds {
		t.Errorf("rounds traced start=%d end=%d, stats=%d", len(starts), len(ends), stats.Rounds)
	}
	closed := rec.Filter(trace.EvRingClosed)
	if len(closed) != 1 {
		t.Errorf("EvRingClosed=%d, want exactly 1", len(closed))
	}
	// The closure edge counts in EdgesAdded but is traced as EvRingClosed.
	if adds := rec.Filter(trace.EvEdgeAdd); int64(len(adds)+len(closed)) != stats.EdgesAdded {
		t.Errorf("EvEdgeAdd=%d + closed=%d, stats.EdgesAdded=%d", len(adds), len(closed), stats.EdgesAdded)
	}
	if drops := rec.Filter(trace.EvEdgeDelegate); int64(len(drops)) != stats.EdgesDropped {
		t.Errorf("EvEdgeDelegate=%d, stats.EdgesDropped=%d", len(drops), stats.EdgesDropped)
	}
	for _, e := range rec.Filter(trace.EvNodeActivate) {
		if e.Value <= 0 {
			t.Errorf("keep-set size gauge missing on activation %+v", e)
		}
	}
}
