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
		{T: 5, Type: trace.EvProbe, Kind: "distance", Value: 7},
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

func TestStatsSinkAggregates(t *testing.T) {
	s := trace.NewStatsSink()
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
	tax := s.MessageTaxonomy()
	if len(tax) != 2 || tax[0].Kind != "ssr:ack" || tax[0].Count != 1 || tax[1].Count != 2 {
		t.Errorf("taxonomy %+v", tax)
	}
	if d := s.Drops(); len(d) != 1 || d[0].Kind != "loss" {
		t.Errorf("drops %+v", d)
	}
	if s.Counter("isprp:flood-origin") != 1 {
		t.Errorf("counter %v", s.Counter("isprp:flood-origin"))
	}
	if g := s.Gauges()["queue"]; g.Last != 3 || g.Max != 5 || g.N != 2 {
		t.Errorf("gauge %+v", g)
	}
	if s.Rounds() != 1 {
		t.Errorf("rounds %d", s.Rounds())
	}
	tab := trace.TaxonomyTable(s.MessageTaxonomy()).String()
	if !strings.Contains(tab, "ssr:notify") || !strings.Contains(tab, "TOTAL") {
		t.Errorf("taxonomy table:\n%s", tab)
	}
}

func TestProbeOnLoopyConvergence(t *testing.T) {
	rec, verdict := &trace.Recorder{}, trace.NewAnalysis()
	p := &trace.Probe{Tracer: trace.Tee(rec, verdict)}
	g := vring.LoopyExample().ToGraph()
	p.Observe(0, g) // pre-run sample: loopy state is far from the line
	stats, final := linearize.Run(g, linearize.Config{
		Variant:   linearize.Memory,
		Scheduler: sim.Synchronous,
		Probe:     p,
	})
	if !stats.Converged {
		t.Fatalf("did not converge: %s", stats)
	}
	if p.Len() != stats.Rounds+1 {
		t.Errorf("samples=%d, want rounds+pre=%d", p.Len(), stats.Rounds+1)
	}
	if v := verdict.Verdict(); !v.ConnectedAll || !v.Converged || v.Probes != p.Len() {
		t.Errorf("connectivity must hold every round and the run converge: %s", v)
	}
	first, _ := p.Samples()[0], final
	if first.Distance() == 0 {
		t.Error("loopy state should start at nonzero distance")
	}
	if last, _ := p.Last(); last.Missing != 0 {
		t.Errorf("converged run still missing %d line edges", last.Missing)
	}
	if p.Stalled() {
		t.Error("converged run should not report a stall")
	}
	// The probe's tracer view must reconstruct the same series.
	series := trace.SeriesFromEvents(rec.Events())
	dist := series["distance"]
	if len(dist.Y) != p.Len() {
		t.Fatalf("event series has %d points, probe %d", len(dist.Y), p.Len())
	}
	for i, s := range p.Samples() {
		if int(dist.Y[i]) != s.Distance() {
			t.Errorf("round %d: event distance %v != sample %d", i, dist.Y[i], s.Distance())
		}
	}
	conn := series["connected"]
	for i, y := range conn.Y {
		if y != 1 {
			t.Errorf("connected series dropped to %v at sample %d", y, i)
		}
	}
}

func TestProbeStallDetection(t *testing.T) {
	p := &trace.Probe{StallWindow: 3}
	// A graph that never changes and is never the line: star around 100.
	g := graph.New()
	for _, v := range []ids.ID{1, 2, 3} {
		g.AddEdge(100, v)
	}
	for round := 0; round < 6; round++ {
		p.Observe(round, g)
	}
	if !p.Stalled() {
		t.Error("constant nonzero distance must register as a stall")
	}
	if last, _ := p.Last(); last.Distance() == 0 {
		t.Error("star is not the line")
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
	if got := len(rec.Filter(trace.EvSimFire)); got != 2 {
		t.Errorf("EvSimFire=%d, want 2", got)
	}
	if got := len(rec.Filter(trace.EvSimCancel)); got != 1 {
		t.Errorf("EvSimCancel=%d, want 1", got)
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
