package trace_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/trace"
)

func writeEvents(t *testing.T, events []trace.Event) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewJSONLWriter(&buf)
	for _, e := range events {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return &buf
}

func TestScannerStreamsAllEvents(t *testing.T) {
	in := []trace.Event{
		{T: 1, Type: trace.EvMsgSend, Node: 3, Peer: 9, Kind: "ssr:notify"},
		{T: 2, Type: trace.EvProbe, Kind: "distance", Value: 4},
		{T: 3, Type: trace.EvRoundEnd, Value: 12},
	}
	sc := trace.NewScanner(writeEvents(t, in))
	var out []trace.Event
	for sc.Scan() {
		out = append(out, sc.Event())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("err: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("scanned %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("event %d: got %+v want %+v", i, out[i], in[i])
		}
	}
	if sc.Count() != int64(len(in)) {
		t.Errorf("count=%d", sc.Count())
	}
}

func TestScannerTruncatedFinalLine(t *testing.T) {
	buf := writeEvents(t, []trace.Event{
		{T: 1, Type: trace.EvProbe, Kind: "distance", Value: 3},
		{T: 2, Type: trace.EvProbe, Kind: "distance", Value: 1},
	})
	// Simulate a crash mid-write: a partial line with no newline.
	buf.WriteString(`{"t":3,"ev":"pro`)
	sc := trace.NewScanner(buf)
	var got int
	for sc.Scan() {
		got++
	}
	if got != 2 {
		t.Errorf("complete events = %d, want 2", got)
	}
	if sc.Err() == nil {
		t.Error("want an error for the truncated final line")
	}
}

func TestScannerSkipsBlankLines(t *testing.T) {
	input := "\n{\"t\":1,\"ev\":\"probe\"}\n\n{\"t\":2,\"ev\":\"probe\"}\n\n"
	evs, err := trace.ReadJSONL(strings.NewReader(input))
	if err != nil {
		t.Fatalf("err: %v", err)
	}
	if len(evs) != 2 {
		t.Errorf("events = %d, want 2", len(evs))
	}
}

func TestScannerErrorReportsLineNumber(t *testing.T) {
	input := "{\"t\":1,\"ev\":\"probe\"}\nbogus\n"
	sc := trace.NewScanner(strings.NewReader(input))
	for sc.Scan() {
	}
	err := sc.Err()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2 in message", err)
	}
	if sc.Line() != 2 {
		t.Errorf("line = %d, want 2", sc.Line())
	}
}

func TestReadJSONLTruncatedFinalLine(t *testing.T) {
	buf := writeEvents(t, []trace.Event{
		{T: 1, Type: trace.EvMsgSend, Kind: "a"},
		{T: 2, Type: trace.EvMsgSend, Kind: "b"},
		{T: 3, Type: trace.EvMsgSend, Kind: "c"},
	})
	full := buf.String()
	cut := full[:len(full)-7] // chop into the final line
	evs, err := trace.ReadJSONL(strings.NewReader(cut))
	if err == nil {
		t.Fatal("want error for truncated trace")
	}
	if len(evs) != 2 {
		t.Errorf("complete events = %d, want 2", len(evs))
	}
}

// TestJSONLWriterOversizeEvent: an event longer than the writer's 64 KiB
// buffer arrives intact, in order between its neighbours.
func TestJSONLWriterOversizeEvent(t *testing.T) {
	in := []trace.Event{
		{T: 1, Type: trace.EvMsgSend, Node: 3, Kind: "before"},
		{T: 2, Type: trace.EvInvariant, Kind: "route-loops", Aux: strings.Repeat("loop ", 20000), Value: 1},
		{T: 3, Type: trace.EvMsgSend, Node: 3, Kind: "after"},
	}
	out, err := trace.ReadJSONL(writeEvents(t, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("event %d differs (aux %d bytes, want %d)", i, len(out[i].Aux), len(in[i].Aux))
		}
	}
}

func TestStatsSinkPerNodeAggregation(t *testing.T) {
	s := trace.NewAnalysis()
	for i := 0; i < 5; i++ {
		s.Emit(trace.Event{Type: trace.EvMsgSend, Node: 1, Peer: 2, Kind: "k"})
	}
	for i := 0; i < 3; i++ {
		s.Emit(trace.Event{Type: trace.EvMsgSend, Node: 2, Peer: 1, Kind: "k"})
	}
	s.Emit(trace.Event{Type: trace.EvMsgRecv, Node: 2, Peer: 1, Kind: "k"})
	s.Emit(trace.Event{Type: trace.EvMsgDrop, Node: 2, Peer: 1, Kind: "k", Aux: "loss"})

	top := s.TopSenders(1)
	if len(top) != 1 || top[0].Node != 1 || top[0].Count != 5 {
		t.Errorf("top senders = %+v", top)
	}
	// Node 2 sent 3, received 1 and dropped 1.
	want := "node,sent,recvd,dropped\n" + ids.ID(1).String() + ",5,0,0\n" + ids.ID(2).String() + ",3,1,1\n"
	if got := s.HotSpotTable(10).CSV(); got != want {
		t.Errorf("hot-spot table:\n%s\nwant:\n%s", got, want)
	}
}

func TestTopSendersDeterministicTieBreak(t *testing.T) {
	s := trace.NewAnalysis()
	for _, n := range []uint64{9, 3, 7} {
		s.Emit(trace.Event{Type: trace.EvMsgSend, Node: ids.ID(n), Kind: "k"})
	}
	top := s.TopSenders(0)
	if len(top) != 3 || top[0].Node != 3 || top[1].Node != 7 || top[2].Node != 9 {
		t.Errorf("tie-break order = %+v", top)
	}
}

// TestStatsSinkConcurrent hammers one Analysis from parallel goroutines, the
// shape of a message-model cluster emitting from multiple nodes while
// another goroutine reads it: every worker emits each folded event type and
// calls every accessor in between. Run with -race.
func TestStatsSinkConcurrent(t *testing.T) {
	a := trace.NewAnalysis()
	const workers, per = 8, 2000
	events := []trace.Event{
		{Type: trace.EvMsgSend, Kind: "k"},
		{Type: trace.EvMsgRecv, Kind: "k"},
		{Type: trace.EvMsgDrop, Kind: "k", Aux: "loss"},
		{Type: trace.EvCounter, Kind: "c", Value: 1},
		{Type: trace.EvGauge, Kind: "g", Value: 2},
		{Type: trace.EvRoundEnd},
		{Type: trace.EvProbe, Kind: "missing", Value: 1},
		{Type: trace.EvInvariant, Kind: "inv"},
		{Type: trace.EvRetransmit, Kind: "k", Value: 2},
		{Type: trace.EvRtoUpdate, Value: 3},
		{Type: trace.EvLeaseExpire, Aux: "up"},
		{Type: trace.EvSpan, Kind: "phase/execute", Value: 5},
		{Type: trace.EvShardRound, Kind: "0", Aux: "interior", Value: 1},
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for _, e := range events {
					e.T, e.Node = int64(i), ids.ID(uint64(w))
					a.Emit(e)
				}
				if i%500 == 0 {
					a.LastProbe()
					a.Events()
					a.TimeSpan()
					a.Counters()
					a.Verdict()
					a.Invariants()
					a.Rel()
					a.TotalSent()
					a.DropTotals()
					a.Perf()
					a.HotSpotTable(3)
					_ = trace.TaxonomyTable(a.Taxonomy())
				}
			}
		}(w)
	}
	wg.Wait()
	const total = workers * per
	if a.TotalSent() != total || a.Verdict().Rounds != total || a.Events() != total*int64(len(events)) {
		t.Errorf("sent %d, rounds %d, events %d; want %d, %d, %d",
			a.TotalSent(), a.Verdict().Rounds, a.Events(), total, total, total*len(events))
	}
	if c := a.Counters(); len(c) != 1 || c[0].Count != total {
		t.Errorf("counters = %+v", c)
	}
	if top := a.TopSenders(0); len(top) != workers || top[0].Count != per {
		t.Errorf("top senders = %+v", top)
	}
}

func TestAnalysisVerdictConverged(t *testing.T) {
	a := trace.NewAnalysis()
	for i, d := range []float64{5, 3, 4, 2, 0, 0} {
		a.Emit(trace.Event{T: int64(i), Type: trace.EvProbe, Kind: "distance", Value: d})
		a.Emit(trace.Event{T: int64(i), Type: trace.EvProbe, Kind: "connected", Value: 1})
	}
	v := a.Verdict()
	if !v.Converged || v.ConvergedAt != 4 {
		t.Errorf("verdict = %+v, want converged at 4", v)
	}
	if v.Oscillations != 1 {
		t.Errorf("oscillations = %d, want 1 (3→4)", v.Oscillations)
	}
	if !v.ConnectedAll {
		t.Error("connectivity held every round")
	}
	if !strings.Contains(v.String(), "CONVERGED at round 4") {
		t.Errorf("verdict string: %s", v)
	}
}

func TestAnalysisVerdictNotConverged(t *testing.T) {
	a := trace.NewAnalysis()
	// Touches zero mid-run but regresses: must not count as converged.
	for i, d := range []float64{4, 0, 2, 1} {
		a.Emit(trace.Event{T: int64(i), Type: trace.EvProbe, Kind: "distance", Value: d})
	}
	a.Emit(trace.Event{T: 2, Type: trace.EvProbe, Kind: "connected", Value: 0})
	v := a.Verdict()
	if v.Converged || v.ConvergedAt != -1 {
		t.Errorf("verdict = %+v, want not converged", v)
	}
	if v.ConnectedAll {
		t.Error("a disconnected sample must clear ConnectedAll")
	}
	if !strings.Contains(v.String(), "NOT CONVERGED") {
		t.Errorf("verdict string: %s", v)
	}
}

func TestAnalysisVerdictPrefersMissing(t *testing.T) {
	// A converged SSR run: missing hits zero while legitimate route-cache
	// surplus keeps the scalar distance nonzero. The verdict must judge on
	// the missing series, not the distance.
	a := trace.NewAnalysis()
	missing := []float64{6, 2, 0, 0}
	surplus := []float64{9, 11, 12, 12}
	for i := range missing {
		ti := int64(i)
		a.Emit(trace.Event{T: ti, Type: trace.EvProbe, Kind: "distance", Value: missing[i] + surplus[i]})
		a.Emit(trace.Event{T: ti, Type: trace.EvProbe, Kind: "missing", Value: missing[i]})
		a.Emit(trace.Event{T: ti, Type: trace.EvProbe, Kind: "surplus", Value: surplus[i]})
		a.Emit(trace.Event{T: ti, Type: trace.EvProbe, Kind: "connected", Value: 1})
	}
	v := a.Verdict()
	if v.Metric != "missing" {
		t.Errorf("metric = %q, want missing", v.Metric)
	}
	if !v.Converged || v.ConvergedAt != 2 {
		t.Errorf("verdict = %+v, want converged at 2", v)
	}
	if v.FinalDistance != 0 || v.Probes != 4 {
		t.Errorf("final = %g probes = %d", v.FinalDistance, v.Probes)
	}
	if v.Oscillations != 0 {
		t.Errorf("oscillations = %d, want 0 (growing surplus must not count)", v.Oscillations)
	}
}

// TestAnalysisLastProbeDecomposition pins how LastProbe reassembles a
// sample from the per-metric EvProbe events of the newest round.
func TestAnalysisLastProbeDecomposition(t *testing.T) {
	a := trace.NewAnalysis()
	if s, ok := a.LastProbe(); ok {
		t.Errorf("LastProbe before any probe event = %+v, want ok=false", s)
	}
	// A round that carries the decomposition reports the true
	// Missing/Surplus split, not the scalar, and every other series.
	for kind, v := range map[string]float64{
		"distance": 15, "missing": 2, "surplus": 13, "connected": 1,
		"multi-left": 2, "multi-right": 1, "edges": 40,
	} {
		a.Emit(trace.Event{T: 5, Type: trace.EvProbe, Kind: kind, Value: v})
	}
	want := trace.ProbeSample{Round: 5, Missing: 2, Surplus: 13, Edges: 40, Connected: true, MultiLeft: 2, MultiRight: 1}
	if s, ok := a.LastProbe(); !ok || s != want || s.Distance() != 15 {
		t.Errorf("sample = %+v ok=%v, want %+v", s, ok, want)
	}
	// An older-trace round with only the scalar parks it in Surplus, and
	// must not inherit the previous round's decomposition.
	a.Emit(trace.Event{T: 6, Type: trace.EvProbe, Kind: "distance", Value: 3})
	if s, ok := a.LastProbe(); !ok || s.Round != 6 || s.Missing != 0 || s.Surplus != 3 {
		t.Errorf("fallback sample = %+v ok=%v, want round 6, missing 0, surplus 3", s, ok)
	}
}

func TestAnalysisTaxonomyFallsBackToCounters(t *testing.T) {
	a := trace.NewAnalysis()
	a.Emit(trace.Event{Type: trace.EvCounter, Kind: trace.MsgCounterPrefix + "ssr:notify", Value: 40})
	a.Emit(trace.Event{Type: trace.EvCounter, Kind: trace.DropCounterPrefix + "loss", Value: 2})
	a.Emit(trace.Event{Type: trace.EvCounter, Kind: "unrelated", Value: 9})
	tax := a.Taxonomy()
	if len(tax) != 1 || tax[0].Kind != "ssr:notify" || tax[0].Count != 40 {
		t.Errorf("taxonomy fallback = %+v", tax)
	}
	if d := a.DropTotals(); len(d) != 1 || d[0].Kind != "loss" || d[0].Count != 2 {
		t.Errorf("drops fallback = %+v", d)
	}
	if a.TotalSent() != 40 {
		t.Errorf("total = %d", a.TotalSent())
	}
	// A per-message event outranks the summary counters.
	a.Emit(trace.Event{Type: trace.EvMsgSend, Node: 1, Kind: "ssr:join"})
	if tax := a.Taxonomy(); len(tax) != 1 || tax[0].Kind != "ssr:join" {
		t.Errorf("taxonomy with msg events = %+v", tax)
	}
}

func TestAnalyzeStream(t *testing.T) {
	buf := writeEvents(t, []trace.Event{
		{T: 0, Type: trace.EvProbe, Kind: "distance", Value: 2},
		{T: 1, Type: trace.EvProbe, Kind: "distance", Value: 0},
		{T: 1, Type: trace.EvRoundEnd},
	})
	a, err := trace.AnalyzeStream(trace.NewScanner(buf))
	if err != nil {
		t.Fatalf("err: %v", err)
	}
	if a.Events() != 3 {
		t.Errorf("events = %d", a.Events())
	}
	if first, last := a.TimeSpan(); first != 0 || last != 1 {
		t.Errorf("span = [%d,%d]", first, last)
	}
	if v := a.Verdict(); !v.Converged || v.Rounds != 1 {
		t.Errorf("verdict = %+v", v)
	}
}
