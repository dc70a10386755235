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
	// seq = begin+finish+end = 27000; par = prepare+execute = 28000. The
	// snapshot span nests inside a sequential phase and is not counted again.
	if seq, par := p.SeqNs(), p.ParNs(); seq != 27000 || par != 28000 {
		t.Fatalf("seq/par = %g/%g, want 27000/28000", seq, par)
	}
	wantShare := 27000.0 / 55000.0
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

// TestPerfFoldsShardEvents pins the per-shard activation fold: counts sum
// per shard and phase across rounds, and the executor's "policy" stamp
// counts its rounds and keeps the latest shard count without becoming a
// shard row of its own.
func TestPerfFoldsShardEvents(t *testing.T) {
	a := NewAnalysis()
	for _, e := range []Event{
		{T: 0, Type: EvShardRound, Kind: "0", Aux: "interior", Value: 12},
		{T: 1, Type: EvShardRound, Kind: "0", Aux: "interior", Value: 3},
		{T: 1, Type: EvShardRound, Kind: "1", Aux: "boundary", Value: 2},
		{T: 0, Type: EvShardRound, Kind: "policy", Aux: "locality", Value: 8},
		{T: 1, Type: EvShardRound, Kind: "policy", Aux: "locality", Value: 9},
	} {
		a.Emit(e)
	}
	p := a.Perf()
	if len(p.Shards) != 2 || p.Shards[0].Shard != 0 || p.Shards[1].Shard != 1 {
		t.Fatalf("shards = %+v, want rows for shards 0 and 1 only", p.Shards)
	}
	if a0, a1 := p.Shards[0].Activations, p.Shards[1].Activations; len(a0) != 1 || a0["interior"] != 15 ||
		len(a1) != 1 || a1["boundary"] != 2 {
		t.Fatalf("activations = %v, %v, want shard 0 interior 15, shard 1 boundary 2", a0, a1)
	}
	if p.Policy != "locality" || p.PolicyRounds != 2 || p.PolicyShards != 9 {
		t.Fatalf("policy = %q rounds %d shards %d, want locality 2 9", p.Policy, p.PolicyRounds, p.PolicyShards)
	}
}

// TestPerfFoldsSpanEvents pins the span fold: phase and nested snapshot/*
// spans total by kind, shard/* spans add to their shard's busy time, the
// imbalance keeps a mean and a max, and the allocation spans sum.
func TestPerfFoldsSpanEvents(t *testing.T) {
	a := NewAnalysis()
	for _, e := range []Event{
		{T: 0, Type: EvSpan, Kind: "phase/prepare", Value: 2e9},
		{T: 1, Type: EvSpan, Kind: "phase/prepare", Value: 1e9},
		{T: 0, Type: EvSpan, Kind: "shard/execute", Aux: "3", Value: 5e8},
		{T: 0, Type: EvSpan, Kind: "shard/prepare", Aux: "3", Value: 25e7},
		{T: 0, Type: EvSpan, Kind: "snapshot/rebuild", Aux: "memory", Value: 1e9},
		{T: 0, Type: EvSpan, Kind: "imbalance", Value: 1.75},
		{T: 1, Type: EvSpan, Kind: "imbalance", Value: 1.25},
		{T: 0, Type: EvSpan, Kind: "allocs", Value: 1024},
		{T: 1, Type: EvSpan, Kind: "allocs", Value: 1024},
		{T: 0, Type: EvSpan, Kind: "mallocs", Value: 10},
		{T: 0, Type: EvSpan, Kind: "gc", Value: 2},
	} {
		a.Emit(e)
	}
	p := a.Perf()
	want := []SpanTotal{
		{Name: "phase/prepare", Count: 2, TotalNs: 3e9, MaxNs: 2e9},
		{Name: "snapshot/rebuild", Count: 1, TotalNs: 1e9, MaxNs: 1e9},
	}
	if len(p.Spans) != len(want) || p.Spans[0] != want[0] || p.Spans[1] != want[1] {
		t.Fatalf("spans = %+v, want %+v", p.Spans, want)
	}
	if len(p.Shards) != 1 || p.Shards[0].Shard != 3 || p.Shards[0].BusyNs != 75e7 {
		t.Fatalf("shards = %+v, want shard 3 busy 7.5e8 ns", p.Shards)
	}
	if p.ImbalanceMean != 1.5 || p.ImbalanceMax != 1.75 {
		t.Fatalf("imbalance mean/max = %g/%g, want 1.5/1.75", p.ImbalanceMean, p.ImbalanceMax)
	}
	if p.AllocBytes != 2048 || p.Mallocs != 10 || p.GCCycles != 2 {
		t.Fatalf("alloc totals = %g/%g/%g, want 2048/10/2", p.AllocBytes, p.Mallocs, p.GCCycles)
	}
}
