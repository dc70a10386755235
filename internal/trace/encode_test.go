package trace

// The JSONL wire format is a contract: committed traces, tracectl and every
// downstream script read it. These tests pin the hand-written encoder to
// the reference it replaced — encoding/json's reflective output.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ids"
)

// plainEvent mirrors Event's fields and tags with no methods anywhere, so
// json.Marshal prints it by reflection alone: the reference encoding.
type plainEvent struct {
	T     int64   `json:"t"`
	Type  string  `json:"ev"`
	Node  uint64  `json:"node,omitempty"`
	Peer  uint64  `json:"peer,omitempty"`
	Kind  string  `json:"kind,omitempty"`
	Aux   string  `json:"aux,omitempty"`
	Value float64 `json:"val,omitempty"`
}

// checkEncoding holds one event's line, as JSONLWriter and appendEvent
// produce it, to the reference; where the reference refuses the event
// (non-finite Value) the writer must refuse it too and write nothing.
func checkEncoding(t *testing.T, e Event) {
	t.Helper()
	ref, refErr := json.Marshal(plainEvent{e.T, e.Type.String(), uint64(e.Node), uint64(e.Peer), e.Kind, e.Aux, e.Value})
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.Emit(e)
	err := w.Close()
	if refErr != nil {
		if err == nil || w.Count() != 0 || buf.Len() != 0 {
			t.Fatalf("%+v: encoding/json refuses (%v); writer err=%v count=%d wrote %q", e, refErr, err, w.Count(), buf.Bytes())
		}
		return
	}
	if err != nil {
		t.Fatalf("%+v: writer err = %v, encoding/json accepts", e, err)
	}
	want := string(ref) + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("%+v:\n got %q\nwant %q", e, got, want)
	}
	if got := string(appendEvent([]byte("x"), e)); got != "x"+want {
		t.Fatalf("%+v: appendEvent onto a non-empty dst = %q", e, got)
	}
}

var (
	edgeStrings = []string{
		"", "ssr:notify", "a<b>&c", `"`, `\`, "\t", "\n", "\x00", "\x1f", "\x7f", " ~",
		"héllo", "日本", "\xff", "a\xc0\xafb", "\xed\xa0\x80", "\u2028", "x\u2029y", "\ufffd",
		"srtt=12.5 rttvar=3", "</script>",
	}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 485, 1e-7, -1e-7, 1e-6, 9.99e-7, 1.5e-9, 1e20, 1e21, -1e21, 1.5e300,
		1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), 1 << 62, 123456789.125, 0.1, 1.0 / 3,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.MaxInt64, math.MinInt64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	edgeIDs   = []uint64{0, 1, 9, 10, 1 << 32, math.MaxInt64, math.MaxUint64}
	edgeTimes = []int64{0, 1, -1, 1 << 40, math.MaxInt64, math.MinInt64}
	edgeTypes = []EventType{EvMsgSend, EvEdgeDelegate, EvSpan, EventType(len(eventNames)), 200, 255}
)

func TestEventEncodingMatchesEncodingJSON(t *testing.T) {
	for _, s := range edgeStrings {
		checkEncoding(t, Event{Type: EvMsgDrop, Kind: s})
		checkEncoding(t, Event{Type: EvMsgDrop, Aux: s, Value: 1})
	}
	for _, f := range edgeFloats {
		checkEncoding(t, Event{Type: EvGauge, Kind: "g", Value: f})
	}
	for _, id := range edgeIDs {
		checkEncoding(t, Event{Type: EvEdgeAdd, Node: ids.ID(id)})
		checkEncoding(t, Event{Type: EvEdgeAdd, Peer: ids.ID(id), Value: 2})
	}
	for _, ts := range edgeTimes {
		checkEncoding(t, Event{T: ts, Type: EvSimFire})
	}
	for _, typ := range edgeTypes {
		checkEncoding(t, Event{Type: typ, Node: 1})
	}

	rng := rand.New(rand.NewSource(1))
	randString := func() string {
		if rng.Intn(4) > 0 {
			return edgeStrings[rng.Intn(len(edgeStrings))]
		}
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	randFloat := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return edgeFloats[rng.Intn(len(edgeFloats))]
		case 1:
			return float64(rng.Int63n(1 << 20))
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return math.Float64frombits(rng.Uint64())
	}
	for i := 0; i < 20000; i++ {
		checkEncoding(t, Event{
			T:     edgeTimes[rng.Intn(len(edgeTimes))] + rng.Int63n(1000),
			Type:  EventType(rng.Intn(len(eventNames) + 2)),
			Node:  ids.ID(rng.Uint64() >> uint(rng.Intn(64))),
			Peer:  ids.ID(edgeIDs[rng.Intn(len(edgeIDs))]),
			Kind:  randString(),
			Aux:   randString(),
			Value: randFloat(),
		})
	}
}

func FuzzEventEncoding(f *testing.F) {
	for i, s := range edgeStrings {
		f.Add(edgeTimes[i%len(edgeTimes)], uint8(edgeTypes[i%len(edgeTypes)]), edgeIDs[i%len(edgeIDs)], edgeIDs[(i+3)%len(edgeIDs)],
			s, edgeStrings[(i+5)%len(edgeStrings)], edgeFloats[i%len(edgeFloats)])
	}
	for _, v := range edgeFloats {
		f.Add(int64(7), uint8(EvGauge), uint64(0), uint64(math.MaxUint64), "g", "", v)
	}
	f.Fuzz(func(t *testing.T, ts int64, typ uint8, node, peer uint64, kind, aux string, val float64) {
		checkEncoding(t, Event{T: ts, Type: EventType(typ), Node: ids.ID(node), Peer: ids.ID(peer), Kind: kind, Aux: aux, Value: val})
	})
}

// TestCommittedTracesReencodeByteIdentical: reading a committed trace and
// writing it back reproduces the file, so traces written before and after
// the encoder change are the same format to every byte.
func TestCommittedTracesReencodeByteIdentical(t *testing.T) {
	files, err := filepath.Glob("../../results/traces/*.jsonl")
	if err != nil || len(files) < 2 {
		t.Fatalf("committed traces: %v (err %v)", files, err)
	}
	for _, name := range files {
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		events, err := ReadJSONL(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got bytes.Buffer
		w := NewJSONLWriter(&got)
		for _, e := range events {
			w.Emit(e)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: %d events re-encode to %d bytes, file has %d and differs", name, len(events), got.Len(), len(want))
		}
	}
}

// TestJSONLEmitDoesNotAllocate: the per-message event of a full-level
// trace costs no heap allocation. Each run hands 10 batches to the encoder
// and wraps the 64 KiB buffer several times, so a handoff or a flush that
// allocates shows too; with the warm-up run, whose first handoff starts the
// encoder, that is 110 handoffs.
func TestJSONLEmitDoesNotAllocate(t *testing.T) {
	w := NewJSONLWriter(io.Discard)
	e := Event{T: 1 << 40, Type: EvMsgSend, Node: math.MaxUint64, Peer: 1 << 63, Kind: "ssr:notify", Value: 17.5}
	const runs, perRun = 10, 10 * jsonlBatch
	n := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perRun; i++ {
			w.Emit(e)
		}
	})
	if n != 0 {
		t.Errorf("%d Emits allocate %v times, want 0", perRun, n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Count(); got != (runs+1)*perRun {
		t.Errorf("count = %d, want %d", got, (runs+1)*perRun)
	}
}
