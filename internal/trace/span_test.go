package trace

// Round-trip coverage for the profiler's span side channel: EvSpan events
// written as JSONL survive Scanner streaming — plain, gzipped, and with a
// truncated tail — and fold into Analysis.Perf() with nothing lost.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"testing"
)

// spanFixture is a two-round profiled trace: round events, shard
// accounting, and every span family the profiler emits.
func spanFixture() []Event {
	var evs []Event
	for round := int64(0); round < 2; round++ {
		evs = append(evs,
			Event{T: round, Type: EvRoundStart, Aux: "lsn", Value: 100},
			Event{T: round, Type: EvSpan, Kind: "phase/begin", Value: 1000},
			Event{T: round, Type: EvSpan, Kind: "snapshot/rebuild", Aux: "memory", Value: 2500},
			Event{T: round, Type: EvSpan, Kind: "phase/prepare", Value: 8000},
			Event{T: round, Type: EvSpan, Kind: "shard/prepare", Aux: "0", Value: 5000},
			Event{T: round, Type: EvSpan, Kind: "shard/prepare", Aux: "1", Value: 3000},
			Event{T: round, Type: EvSpan, Kind: "phase/execute", Value: 6000},
			Event{T: round, Type: EvSpan, Kind: "shard/execute", Aux: "0", Value: 4000},
			Event{T: round, Type: EvSpan, Kind: "shard/execute", Aux: "1", Value: 2000},
			Event{T: round, Type: EvSpan, Kind: "phase/finish", Value: 12000},
			Event{T: round, Type: EvShardRound, Kind: "0", Aux: "interior", Value: 10},
			Event{T: round, Type: EvShardRound, Kind: "1", Aux: "interior", Value: 20},
			Event{T: round, Type: EvShardRound, Kind: "0", Aux: "boundary", Value: 70},
			Event{T: round, Type: EvShardRound, Kind: "1", Aux: "boundary", Value: 50},
			Event{T: round, Type: EvSpan, Kind: "phase/end", Value: 500},
			Event{T: round, Type: EvSpan, Kind: "imbalance", Value: 1.25},
			Event{T: round, Type: EvSpan, Kind: "allocs", Value: 4096},
			Event{T: round, Type: EvSpan, Kind: "mallocs", Value: 32},
			Event{T: round, Type: EvSpan, Kind: "gc", Value: 1},
			Event{T: round, Type: EvRoundEnd, Aux: "lsn", Value: 110},
		)
	}
	return evs
}

// checkPerf asserts the fixture's aggregates, shared by every transport.
func checkPerf(t *testing.T, p PerfReport) {
	t.Helper()
	if p.Empty() {
		t.Fatal("perf report empty")
	}
	wantSpans := map[string]float64{ // kind -> total over 2 rounds
		"phase/begin": 2000, "phase/prepare": 16000, "phase/execute": 12000,
		"phase/finish": 24000, "phase/end": 1000, "snapshot/rebuild": 5000,
	}
	got := map[string]SpanTotal{}
	for _, s := range p.Spans {
		got[s.Name] = s
	}
	for kind, total := range wantSpans {
		s, ok := got[kind]
		if !ok || s.TotalNs != total || s.Count != 2 {
			t.Fatalf("span %s = %+v (ok=%v), want total %g count 2", kind, s, ok, total)
		}
	}
	if len(p.Shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(p.Shards))
	}
	if p.Shards[0].BusyNs != 18000 || p.Shards[1].BusyNs != 10000 {
		t.Fatalf("shard busy = %g, %g, want 18000, 10000", p.Shards[0].BusyNs, p.Shards[1].BusyNs)
	}
	acts := p.ActivationTotals()
	if acts["interior"] != 60 || acts["boundary"] != 240 {
		t.Fatalf("activations = %v, want interior 60 boundary 240", acts)
	}
	if p.ImbalanceMean != 1.25 || p.ImbalanceMax != 1.25 {
		t.Fatalf("imbalance mean/max = %g/%g, want 1.25", p.ImbalanceMean, p.ImbalanceMax)
	}
	if p.AllocBytes != 8192 || p.Mallocs != 64 || p.GCCycles != 2 {
		t.Fatalf("alloc totals = %g/%g/%g", p.AllocBytes, p.Mallocs, p.GCCycles)
	}
	// seq = begin+finish+end+snapshot = 32000; par = prepare+execute = 28000.
	if seq, par := p.SeqNs(), p.ParNs(); seq != 32000 || par != 28000 {
		t.Fatalf("seq/par = %g/%g, want 32000/28000", seq, par)
	}
	wantShare := 32000.0 / 60000.0
	if math.Abs(p.SeqShare()-wantShare) > 1e-12 {
		t.Fatalf("seq share = %g, want %g", p.SeqShare(), wantShare)
	}
}

// TestSpanRoundTripPlain pins the plain JSONL path.
func TestSpanRoundTripPlain(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, e := range spanFixture() {
		w.Emit(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeStream(NewScanner(&buf))
	if err != nil {
		t.Fatal(err)
	}
	checkPerf(t, a.Perf())
}

// TestSpanRoundTripGzip pins the .gz path tracectl serves.
func TestSpanRoundTripGzip(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	w := NewJSONLWriter(gz)
	for _, e := range spanFixture() {
		w.Emit(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	gr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeStream(NewScanner(gr))
	if err != nil {
		t.Fatal(err)
	}
	checkPerf(t, a.Perf())
}

// TestSpanRoundTripTruncatedTail pins the crash-recovery path: a trace cut
// mid-line yields every complete span, then an error — and the partial
// analysis still carries the spans that made it to disk.
func TestSpanRoundTripTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	fixture := spanFixture()
	for _, e := range fixture {
		w.Emit(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cut := append([]byte(nil), full[:len(full)-10]...) // slice into the last line

	a, err := AnalyzeStream(NewScanner(bytes.NewReader(cut)))
	if err == nil {
		t.Fatal("expected a truncation error")
	}
	if got, want := a.Events(), int64(len(fixture)-1); got != want {
		t.Fatalf("decoded %d events before the cut, want %d", got, want)
	}
	p := a.Perf()
	if p.Empty() {
		t.Fatal("partial perf report empty")
	}
	// The cut line is the second EvRoundEnd; every span survived.
	checkPerf(t, p)
}

// TestSpanSurvivesLevelFilter pins that spans ride the round-level channel:
// a LevelRound filter keeps them, LevelOff drops everything.
func TestSpanSurvivesLevelFilter(t *testing.T) {
	rec := &Recorder{}
	f := WithLevel(rec, LevelRound)
	for _, e := range spanFixture() {
		f.Emit(e)
	}
	spans := rec.Filter(EvSpan)
	if len(spans) != 28 { // 14 spans per round x 2 rounds
		t.Fatalf("got %d spans through LevelRound, want 28", len(spans))
	}
	if tr := WithLevel(rec, LevelOff); tr != nil {
		t.Fatal("LevelOff should collapse to nil")
	}
	if s := fmt.Sprint(EvSpan); s != "span" {
		t.Fatalf("EvSpan renders as %q", s)
	}
	if typ, ok := ParseEventType("span"); !ok || typ != EvSpan {
		t.Fatalf("ParseEventType(span) = %v, %v", typ, ok)
	}
}
