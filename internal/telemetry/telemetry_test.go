package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// scrape renders one endpoint without binding a port.
func scrape(s *telemetry.Server, path string) string {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Body.String()
}

// samples parses an exposition into series ("name{labels}") -> value text,
// skipping the # comment lines.
func samples(t *testing.T, body string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		out[line[:i]] = line[i+1:]
	}
	return out
}

func wantLines(t *testing.T, body string, lines ...string) {
	t.Helper()
	for _, want := range lines {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	s := telemetry.NewServer()
	tr := s.Tracer()
	tr.Emit(trace.Event{T: 1, Type: trace.EvMsgSend, Node: 3, Peer: 9, Kind: "ssr:notify"})
	tr.Emit(trace.Event{T: 1, Type: trace.EvMsgSend, Node: 3, Peer: 7, Kind: "ssr:notify"})
	tr.Emit(trace.Event{T: 1, Type: trace.EvMsgDrop, Node: 7, Peer: 3, Kind: "ssr:ack", Aux: "loss"})
	tr.Emit(trace.Event{T: 2, Type: trace.EvEdgeAdd, Node: 3, Peer: 9})
	tr.Emit(trace.Event{T: 2, Type: trace.EvRoundEnd, Value: 5})
	for kind, val := range map[string]float64{
		"distance": 4, "connected": 1, "multi-left": 2, "multi-right": 1, "edges": 9,
	} {
		tr.Emit(trace.Event{T: 7, Type: trace.EvProbe, Kind: kind, Value: val})
	}

	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr

	body, ctype := get(t, base+"/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("metrics content-type = %q", ctype)
	}
	wantLines(t, body,
		`ssr_messages_sent_total{kind="ssr:notify"} 2`,
		`ssr_node_messages_sent_total{node="3"} 2`,
		`ssr_messages_dropped_total{reason="loss"} 1`,
		`ssr_rounds_total 1`,
		`ssr_trace_events_total{ev="edge-add"} 1`,
		`ssr_trace_events_all_total 10`,
		`ssr_probe{metric="distance"} 4`,
		"# HELP ssr_messages_sent physical frames put on the air, by kind",
		"# TYPE ssr_messages_sent counter",
		"# TYPE ssr_probe gauge",
	)
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("/metrics must end with # EOF:\n%s", body)
	}

	body, ctype = get(t, base+"/probe")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("probe content-type = %q", ctype)
	}
	var probe struct {
		Present  bool   `json:"present"`
		Distance int    `json:"distance"`
		Verdict  string `json:"verdict"`
		Sample   struct {
			Round     int
			Connected bool
			Edges     int
		} `json:"sample"`
	}
	if err := json.Unmarshal([]byte(body), &probe); err != nil {
		t.Fatalf("probe json: %v in %s", err, body)
	}
	if !probe.Present || probe.Distance != 4 || probe.Sample.Round != 7 || !probe.Sample.Connected || probe.Sample.Edges != 9 {
		t.Errorf("probe = %+v", probe)
	}
	if want := s.Analysis().Verdict().String(); probe.Verdict != want || !strings.HasPrefix(want, "NOT CONVERGED") {
		t.Errorf("probe verdict = %q, want %q", probe.Verdict, want)
	}

	body, _ = get(t, base+"/healthz")
	var health struct {
		Status string `json:"status"`
		Events int64  `json:"events"`
		Sent   int64  `json:"msgs_sent"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz json: %v", err)
	}
	if health.Status != "ok" || health.Events != 10 || health.Sent != 2 {
		t.Errorf("healthz = %+v", health)
	}
}

// mixedStream is one event of every kind the fold distinguishes.
func mixedStream() []trace.Event {
	return []trace.Event{
		{T: 1, Type: trace.EvMsgSend, Node: 3, Peer: 9, Kind: "ssr:notify"},
		{T: 1, Type: trace.EvMsgSend, Node: 3, Peer: 7, Kind: "ssr:notify"},
		{T: 1, Type: trace.EvMsgSend, Node: 12, Peer: 3, Kind: "ssr:ack"},
		{T: 1, Type: trace.EvMsgRecv, Node: 9, Peer: 3, Kind: "ssr:notify"},
		{T: 1, Type: trace.EvMsgDrop, Node: 7, Peer: 3, Kind: "ssr:ack", Aux: "loss"},
		{T: 1, Type: trace.EvMsgDrop, Node: 7, Peer: 3, Kind: "ssr:ack", Aux: "weird \"reason\"\\"},
		{T: 2, Type: trace.EvEdgeAdd, Node: 3, Peer: 9},
		{T: 2, Type: trace.EvRoundEnd, Value: 5},
		{T: 3, Type: trace.EvRoundEnd, Value: 4},
		{T: 2, Type: trace.EvSimFire, Value: 42},
		{T: 2, Type: trace.EvCounter, Kind: "ring/closed", Value: 1},
		{T: 4, Type: trace.EvProbe, Kind: "distance", Value: 20},
		{T: 4, Type: trace.EvProbe, Kind: "missing", Value: 3},
		{T: 4, Type: trace.EvProbe, Kind: "surplus", Value: 17},
		{T: 4, Type: trace.EvProbe, Kind: "connected", Value: 1},
		{T: 5, Type: trace.EvProbe, Kind: "distance", Value: 15},
		{T: 5, Type: trace.EvProbe, Kind: "missing", Value: 2},
		{T: 5, Type: trace.EvProbe, Kind: "surplus", Value: 13},
		{T: 5, Type: trace.EvProbe, Kind: "connected", Value: 1},
		{T: 5, Type: trace.EvProbe, Kind: "multi-left", Value: 2},
		{T: 5, Type: trace.EvProbe, Kind: "multi-right", Value: 1},
		{T: 5, Type: trace.EvProbe, Kind: "edges", Value: 40},
		{T: 1, Type: trace.EvGauge, Kind: "parallel/interior-activations", Value: 15},
		{T: 2, Type: trace.EvGauge, Kind: "parallel/interior-activations", Value: 4},
		{T: 0, Type: trace.EvShardRound, Kind: "0", Aux: "interior", Value: 12},
		{T: 1, Type: trace.EvShardRound, Kind: "0", Aux: "interior", Value: 3},
		{T: 1, Type: trace.EvShardRound, Kind: "1", Aux: "boundary", Value: 2},
		{T: 0, Type: trace.EvShardRound, Kind: "policy", Aux: "locality", Value: 8},
		{T: 1, Type: trace.EvShardRound, Kind: "policy", Aux: "locality", Value: 9},
		{T: 6, Type: trace.EvInvariant, Kind: "connectivity"},
		{T: 7, Type: trace.EvInvariant, Kind: "connectivity", Value: 1, Aux: "2 components"},
		{T: 7, Type: trace.EvInvariant, Kind: "route-loops"},
		{T: 8, Type: trace.EvRetransmit, Node: 3, Peer: 9, Kind: "ssr:notify", Value: 1},
		{T: 9, Type: trace.EvRetransmit, Node: 3, Peer: 9, Kind: "ssr:notify", Value: 2},
		{T: 9, Type: trace.EvRtoUpdate, Node: 3, Peer: 9, Kind: "rto", Value: 24, Aux: "srtt=8 rttvar=4"},
		{T: 9, Type: trace.EvRtoUpdate, Node: 9, Peer: 3, Kind: "rto", Value: 17.5},
		{T: 10, Type: trace.EvLeaseExpire, Node: 3, Peer: 9, Value: 1, Aux: "down"},
		{T: 11, Type: trace.EvLeaseExpire, Node: 3, Peer: 9, Aux: "up"},
		{T: 12, Type: trace.EvLeaseExpire, Node: 3, Peer: 7, Value: 1, Aux: "down"},
		{T: 0, Type: trace.EvSpan, Kind: "phase/prepare", Value: 2e9},
		{T: 1, Type: trace.EvSpan, Kind: "phase/prepare", Value: 1e9},
		{T: 0, Type: trace.EvSpan, Kind: "shard/execute", Aux: "3", Value: 5e8},
		{T: 0, Type: trace.EvSpan, Kind: "shard/prepare", Aux: "3", Value: 25e7},
		{T: 0, Type: trace.EvSpan, Kind: "snapshot/rebuild", Aux: "memory", Value: 1e9},
		{T: 0, Type: trace.EvSpan, Kind: "imbalance", Value: 1.75},
		{T: 1, Type: trace.EvSpan, Kind: "imbalance", Value: 1.25},
		{T: 0, Type: trace.EvSpan, Kind: "allocs", Value: 1024},
		{T: 1, Type: trace.EvSpan, Kind: "allocs", Value: 1024},
		{T: 0, Type: trace.EvSpan, Kind: "mallocs", Value: 10},
		{T: 0, Type: trace.EvSpan, Kind: "gc", Value: 2},
	}
}

// TestLiveEqualsOffline is the rule the server is built on: a number is
// available live iff it is available offline, and they agree. One mixed
// stream goes to the live server and, through the JSONL writer and the
// scanner, to a fresh Analysis — the path `tracectl report` takes. Every
// sample line of /metrics must be what the offline accessor says (no line
// more, no line less), and /probe must be the offline LastProbe.
func TestLiveEqualsOffline(t *testing.T) {
	s := telemetry.NewServer()
	var file bytes.Buffer
	w := trace.NewJSONLWriter(&file)
	for _, e := range mixedStream() {
		s.Tracer().Emit(e)
		w.Emit(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	off, err := trace.AnalyzeStream(trace.NewScanner(&file))
	if err != nil {
		t.Fatal(err)
	}

	num := func(v float64) string {
		if v == float64(int64(v)) {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%g", v)
	}
	want := map[string]string{}
	for _, kt := range off.Stats.TypeCounts() {
		want[fmt.Sprintf(`ssr_trace_events_total{ev=%q}`, kt.Kind)] = num(float64(kt.Count))
	}
	want["ssr_trace_events_all_total"] = num(float64(off.Events()))
	for _, kt := range off.Taxonomy() {
		want[fmt.Sprintf(`ssr_messages_sent_total{kind=%q}`, kt.Kind)] = num(float64(kt.Count))
	}
	for _, kt := range off.DropTotals() {
		want[fmt.Sprintf(`ssr_messages_dropped_total{reason=%q}`, kt.Kind)] = num(float64(kt.Count))
	}
	for _, nt := range off.Stats.TopSenders(0) {
		want[fmt.Sprintf(`ssr_node_messages_sent_total{node=%q}`, nt.Node.String())] = num(float64(nt.Count))
	}
	want["ssr_rounds_total"] = num(float64(off.Stats.Rounds()))
	for kind, v := range off.Probes() {
		want[fmt.Sprintf(`ssr_probe{metric=%q}`, kind)] = num(v)
	}
	for name, g := range off.Stats.Gauges() {
		want[fmt.Sprintf(`ssr_gauge{metric=%q}`, name)] = num(g.Last)
	}
	perf, rel := off.Perf(), off.Rel()
	for _, sh := range perf.Shards {
		for phase, c := range sh.Activations {
			want[fmt.Sprintf(`ssr_shard_activations_total{phase=%q,shard="%d"}`, phase, sh.Shard)] = num(float64(c))
		}
		want[fmt.Sprintf(`ssr_shard_busy_seconds_total{shard="%d"}`, sh.Shard)] = num(sh.BusyNs / 1e9)
	}
	want[fmt.Sprintf(`ssr_partition_rounds_total{policy=%q}`, perf.Policy)] = num(float64(perf.PolicyRounds))
	want[fmt.Sprintf(`ssr_partition_shards{policy=%q}`, perf.Policy)] = num(float64(perf.PolicyShards))
	for _, iv := range off.Invariants() {
		want[fmt.Sprintf(`ssr_invariant_checks_total{invariant=%q}`, iv.Invariant)] = num(float64(iv.Checks))
		want[fmt.Sprintf(`ssr_invariant_violations_total{invariant=%q}`, iv.Invariant)] = num(float64(iv.Violations))
	}
	for _, kt := range rel.Retransmits {
		want[fmt.Sprintf(`ssr_retransmits_total{kind=%q}`, kt.Kind)] = num(float64(kt.Count))
	}
	want[`ssr_rto_ticks{stat="min"}`] = num(rel.RTOMin)
	want[`ssr_rto_ticks{stat="max"}`] = num(rel.RTOMax)
	want[`ssr_rto_ticks{stat="last"}`] = num(rel.RTOLast)
	want[`ssr_lease_verdicts_total{verdict="down"}`] = num(float64(rel.LeaseDowns))
	want[`ssr_lease_verdicts_total{verdict="up"}`] = num(float64(rel.LeaseUps))
	for _, sp := range perf.Spans {
		want[fmt.Sprintf(`ssr_phase_seconds_total{phase=%q}`, strings.TrimPrefix(sp.Name, "phase/"))] = num(sp.TotalNs / 1e9)
	}
	want[`ssr_shard_imbalance{stat="mean"}`] = num(perf.ImbalanceMean)
	want[`ssr_shard_imbalance{stat="max"}`] = num(perf.ImbalanceMax)
	want["ssr_alloc_bytes_total"] = num(perf.AllocBytes)
	want["ssr_mallocs_total"] = num(perf.Mallocs)
	want["ssr_gc_cycles_total"] = num(perf.GCCycles)

	got := samples(t, scrape(s, "/metrics"))
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: live %q, offline %q", k, got[k], want[k])
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("live series %s = %s has no offline counterpart in this test", k, v)
		}
	}
	// The stream exercises every family: none of the offline accessors above
	// may have come back empty and passed vacuously.
	for _, fam := range []string{"ssr_trace_events", "ssr_messages_sent", "ssr_messages_dropped", "ssr_node_messages_sent",
		"ssr_probe", "ssr_gauge", "ssr_shard_activations", "ssr_shard_busy_seconds", "ssr_invariant_checks",
		"ssr_retransmits", "ssr_phase_seconds"} {
		found := false
		for k := range want {
			found = found || strings.HasPrefix(k, fam)
		}
		if !found {
			t.Errorf("no offline series for family %s", fam)
		}
	}

	var live struct {
		Present  bool              `json:"present"`
		Sample   trace.ProbeSample `json:"sample"`
		Distance int               `json:"distance"`
		Verdict  string            `json:"verdict"`
	}
	if err := json.Unmarshal([]byte(scrape(s, "/probe")), &live); err != nil {
		t.Fatal(err)
	}
	sample, ok := off.LastProbe()
	if !ok || !live.Present || live.Sample != sample || live.Distance != sample.Distance() {
		t.Errorf("/probe sample = %+v (present=%v), offline LastProbe = %+v (ok=%v)", live.Sample, live.Present, sample, ok)
	}
	if want := (trace.ProbeSample{Round: 5, Missing: 2, Surplus: 13, Edges: 40, Connected: true, MultiLeft: 2, MultiRight: 1}); sample != want {
		t.Errorf("offline LastProbe = %+v, want %+v", sample, want)
	}
	if live.Verdict != off.Verdict().String() {
		t.Errorf("/probe verdict %q, offline %q", live.Verdict, off.Verdict())
	}
}

func TestFoldProbeDecomposition(t *testing.T) {
	s := telemetry.NewServer()
	tr := s.Tracer()
	// A modern round carries the scalar plus its decomposition: the
	// reassembled sample must hold the true Missing/Surplus split, not the
	// parked scalar.
	tr.Emit(trace.Event{T: 5, Type: trace.EvProbe, Kind: "distance", Value: 15})
	tr.Emit(trace.Event{T: 5, Type: trace.EvProbe, Kind: "missing", Value: 2})
	tr.Emit(trace.Event{T: 5, Type: trace.EvProbe, Kind: "surplus", Value: 13})
	sample, ok := s.Analysis().LastProbe()
	if !ok || sample.Round != 5 || sample.Missing != 2 || sample.Surplus != 13 || sample.Distance() != 15 {
		t.Errorf("sample = %+v ok=%v, want missing=2 surplus=13", sample, ok)
	}
	// An older-trace round with only the scalar falls back to parking it in
	// Surplus — and must not inherit the previous round's decomposition.
	tr.Emit(trace.Event{T: 6, Type: trace.EvProbe, Kind: "distance", Value: 3})
	sample, ok = s.Analysis().LastProbe()
	if !ok || sample.Round != 6 || sample.Missing != 0 || sample.Surplus != 3 {
		t.Errorf("fallback sample = %+v ok=%v, want missing=0 surplus=3", sample, ok)
	}
}

func TestProbeEmptyBeforeSamples(t *testing.T) {
	s := telemetry.NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body, _ := get(t, "http://"+addr+"/probe")
	var probe struct {
		Present bool    `json:"present"`
		Age     float64 `json:"age_s"`
	}
	if err := json.Unmarshal([]byte(body), &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Present || probe.Age != 0 {
		t.Errorf("probe must report present=false, age 0 before any sample: %+v", probe)
	}
}

// TestCollectorConcurrentWithScrapes emits from parallel goroutines while
// scraping — the live-scrape-mid-bootstrap shape. Meaningful under -race.
func TestCollectorConcurrentWithScrapes(t *testing.T) {
	s := telemetry.NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := s.Tracer()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(trace.Event{T: int64(i), Type: trace.EvMsgSend, Node: 1, Kind: "k"})
				tr.Emit(trace.Event{T: int64(i), Type: trace.EvProbe, Kind: "distance", Value: float64(i % 7)})
				tr.Emit(trace.Event{T: int64(i), Type: trace.EvSpan, Kind: "shard/execute", Aux: "1", Value: 10})
				tr.Emit(trace.Event{T: int64(i), Type: trace.EvRoundEnd})
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		get(t, "http://"+addr+"/metrics")
		get(t, "http://"+addr+"/probe")
		get(t, "http://"+addr+"/healthz")
	}
	wg.Wait()
	if sample, ok := s.Analysis().LastProbe(); !ok || sample.Round < 0 {
		t.Errorf("last probe = %+v ok=%v", sample, ok)
	}
	wantLines(t, scrape(s, "/metrics"), `ssr_messages_sent_total{kind="k"} 2000`, "ssr_rounds_total 2000")
}

// The two tests below pin values, which the differential above cannot: live
// and offline are one fold, so they would agree on a wrong number too.

func TestCollectorFoldsShardAndGaugeEvents(t *testing.T) {
	s := telemetry.NewServer()
	tr := s.Tracer()
	tr.Emit(trace.Event{T: 0, Type: trace.EvShardRound, Kind: "0", Aux: "interior", Value: 12})
	tr.Emit(trace.Event{T: 1, Type: trace.EvShardRound, Kind: "0", Aux: "interior", Value: 3})
	tr.Emit(trace.Event{T: 1, Type: trace.EvShardRound, Kind: "1", Aux: "boundary", Value: 2})
	tr.Emit(trace.Event{T: 0, Type: trace.EvShardRound, Kind: "policy", Aux: "locality", Value: 8})
	tr.Emit(trace.Event{T: 1, Type: trace.EvShardRound, Kind: "policy", Aux: "locality", Value: 9})
	tr.Emit(trace.Event{T: 1, Type: trace.EvGauge, Kind: "parallel/interior-activations", Value: 15})
	tr.Emit(trace.Event{T: 2, Type: trace.EvGauge, Kind: "parallel/interior-activations", Value: 4})

	body := scrape(s, "/metrics")
	wantLines(t, body,
		`ssr_shard_activations_total{phase="interior",shard="0"} 15`,
		`ssr_shard_activations_total{phase="boundary",shard="1"} 2`,
		// The "policy" stamp counts rounds per policy and tracks the latest
		// shard count; gauges keep the latest reading, not a sum.
		`ssr_partition_rounds_total{policy="locality"} 2`,
		`ssr_partition_shards{policy="locality"} 9`,
		`ssr_gauge{metric="parallel/interior-activations"} 4`,
	)
	if strings.Contains(body, `shard="policy"`) {
		t.Errorf("policy stamp leaked into shard activations:\n%s", body)
	}
}

func TestCollectorFoldsSpanEvents(t *testing.T) {
	s := telemetry.NewServer()
	tr := s.Tracer()
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "phase/prepare", Value: 2e9})
	tr.Emit(trace.Event{T: 1, Type: trace.EvSpan, Kind: "phase/prepare", Value: 1e9})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "shard/execute", Aux: "3", Value: 5e8})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "shard/prepare", Aux: "3", Value: 25e7})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "snapshot/rebuild", Aux: "memory", Value: 1e9})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "imbalance", Value: 1.75})
	tr.Emit(trace.Event{T: 1, Type: trace.EvSpan, Kind: "imbalance", Value: 1.25})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "allocs", Value: 1024})
	tr.Emit(trace.Event{T: 1, Type: trace.EvSpan, Kind: "allocs", Value: 1024})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "mallocs", Value: 10})
	tr.Emit(trace.Event{T: 0, Type: trace.EvSpan, Kind: "gc", Value: 2})

	wantLines(t, scrape(s, "/metrics"),
		// Nanoseconds in, seconds out; ad-hoc spans keep their full name.
		`ssr_phase_seconds_total{phase="prepare"} 3`,
		`ssr_phase_seconds_total{phase="snapshot/rebuild"} 1`,
		`ssr_shard_busy_seconds_total{shard="3"} 0.75`,
		`ssr_shard_imbalance{stat="mean"} 1.5`,
		`ssr_shard_imbalance{stat="max"} 1.75`,
		`ssr_alloc_bytes_total 2048`,
		`ssr_mallocs_total 10`,
		`ssr_gc_cycles_total 2`,
	)
}
