package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/ids"
	"repro/internal/trace"
)

// BenchmarkAnalyzeStream measures the report path — JSONL decode through
// trace.Scanner plus aggregation through trace.Analysis — over a synthetic
// trace shaped like a real bootstrap: message events with per-node
// attribution, round bookkeeping, probe samples (`make bench-analyze`).
func BenchmarkAnalyzeStream(b *testing.B) {
	const events, nodes = 500_000, 256
	var buf bytes.Buffer
	w := trace.NewJSONLWriter(&buf)
	kinds := []string{"ssr:notify", "ssr:ack", "ssr:delegate", "ssr:probe"}
	round := int64(0)
	for i := 0; i < events; i++ {
		src := ids.ID(uint64(i%nodes) + 1)
		dst := ids.ID(uint64((i+7)%nodes) + 1)
		switch {
		case i%97 == 0:
			w.Emit(trace.Event{T: round, Type: trace.EvRoundEnd, Value: float64(nodes)})
			round++
		case i%61 == 0:
			w.Emit(trace.Event{T: round, Type: trace.EvProbe, Kind: "distance", Value: float64(events - i)})
		case i%13 == 0:
			w.Emit(trace.Event{T: round, Type: trace.EvMsgDrop, Node: src, Peer: dst, Kind: kinds[i%len(kinds)], Aux: "loss"})
		case i%2 == 0:
			w.Emit(trace.Event{T: round, Type: trace.EvMsgSend, Node: src, Peer: dst, Kind: kinds[i%len(kinds)], Value: 2})
		default:
			w.Emit(trace.Event{T: round, Type: trace.EvMsgRecv, Node: dst, Peer: src, Kind: kinds[i%len(kinds)]})
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := trace.AnalyzeStream(trace.NewScanner(bytes.NewReader(buf.Bytes())))
		if err != nil {
			b.Fatal(err)
		}
		if a.Events() != events {
			b.Fatalf("analyzed %d events, want %d", a.Events(), events)
		}
	}
}
