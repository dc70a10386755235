package trace

// This file adds the structured event layer on top of the ASCII renderers:
// a Tracer interface that the simulation engine, the physical network, the
// linearization engine and the message-level protocols emit timestamped
// events into. The nil Tracer is the disabled state — every emission site
// guards with a nil check, so tracing costs one predictable branch when off.

import (
	"encoding/json"
	"fmt"

	"repro/internal/ids"
)

// EventType classifies a trace event. The taxonomy covers the three layers
// the experiments need to see inside: the event engine (SimFire/SimCancel),
// the physical network (Msg*), and the linearization/protocol layer
// (Edge*, Round*, NodeActivate, RingClosed, Probe) plus generic
// counter/gauge hooks.
type EventType uint8

const (
	// EvMsgSend records a physical frame put on the air.
	EvMsgSend EventType = iota
	// EvMsgRecv records a physical frame delivered to its handler.
	EvMsgRecv
	// EvMsgDrop records a frame lost or destroyed (Aux: "no-link", "loss",
	// "dest-down", "link-gone", "corrupt").
	EvMsgDrop
	// EvEdgeAdd records a virtual edge entering E_v.
	EvEdgeAdd
	// EvEdgeDelegate records a virtual edge delegated away (removed after
	// its endpoint was connected to a closer node) — never a plain delete.
	EvEdgeDelegate
	// EvRoundStart opens a synchronous round (Value: current edge count).
	EvRoundStart
	// EvRoundEnd closes a round (Value: edge count after the round).
	EvRoundEnd
	// EvNodeActivate records one node applying its operation
	// (Value: keep-set size for pruning variants).
	EvNodeActivate
	// EvRingClosed records a wrap edge / wrap partner being established.
	EvRingClosed
	// EvSimFire records an engine event firing (Value: queue depth after).
	EvSimFire
	// EvSimCancel records a scheduled engine event being cancelled.
	EvSimCancel
	// EvCounter is a named monotonic counter increment (Kind, Value).
	EvCounter
	// EvGauge is a named instantaneous measurement (Kind, Value).
	EvGauge
	// EvProbe is a convergence-probe sample; Kind names the metric
	// ("distance", "connected", "multi-left", …), Value carries it.
	EvProbe
	// EvShardRound is one shard's per-round accounting from the sharded
	// parallel executor (Kind: shard index in decimal; Aux: the phase —
	// "propose", "interior" or "boundary"; Value: state-changing
	// activations).
	EvShardRound
	// EvInvariant records an online invariant check from the chaos harness.
	// Kind names the invariant ("connectivity", "pending-bound",
	// "route-loops", "reconverge"); Aux carries the violation detail when
	// Value != 0. Value is 0 for a passing check and 1 for a violation, so
	// a trace's violation count is the sum of the series.
	EvInvariant
	// EvRetransmit records the reliable sublayer re-sending an unacked frame
	// (Kind: the inner frame kind; Value: the attempt number, 1 for the
	// first retransmission).
	EvRetransmit
	// EvRtoUpdate records an RTO estimator update after an RTT sample
	// (Kind: "rto"; Value: the new retransmission timeout in ticks; Aux
	// carries "srtt=<v> rttvar=<v>" for offline analysis).
	EvRtoUpdate
	// EvLeaseExpire records a failure-detector verdict about a physical
	// neighbor (Peer). Value is 1 when the lease expired (neighbor declared
	// down) and 0 when traffic resumed (neighbor declared up again); Aux is
	// "down" or "up" accordingly.
	EvLeaseExpire
	// EvSpan is one completed performance span from the deterministic-safe
	// profiler (internal/perf): a measured cost attributed to a phase, a
	// shard, or an allocation series of one round. T is the round index;
	// Kind names the span ("phase/prepare", "shard/execute",
	// "snapshot/rebuild", "imbalance", "allocs", "mallocs", "gc"); Aux
	// qualifies it (the shard index for shard/* spans, the variant or phase
	// otherwise); Value carries the measurement — wall nanoseconds for
	// timing spans, a ratio for "imbalance", byte/object/cycle deltas for
	// the allocation spans. Spans flow on a side channel that never feeds
	// back into protocol state: stripping every EvSpan from a profiled
	// trace yields the byte-identical stream of an unprofiled run.
	EvSpan
)

var eventNames = [...]string{
	EvMsgSend:      "msg-send",
	EvMsgRecv:      "msg-recv",
	EvMsgDrop:      "msg-drop",
	EvEdgeAdd:      "edge-add",
	EvEdgeDelegate: "edge-delegate",
	EvRoundStart:   "round-start",
	EvRoundEnd:     "round-end",
	EvNodeActivate: "node-activate",
	EvRingClosed:   "ring-closed",
	EvSimFire:      "sim-fire",
	EvSimCancel:    "sim-cancel",
	EvCounter:      "counter",
	EvGauge:        "gauge",
	EvProbe:        "probe",
	EvShardRound:   "shard-round",
	EvInvariant:    "invariant",
	EvRetransmit:   "retransmit",
	EvRtoUpdate:    "rto-update",
	EvLeaseExpire:  "lease-expire",
	EvSpan:         "span",
}

// String names the event type (the `ev` field of the JSONL encoding).
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("event-%d", uint8(t))
}

var eventByName = func() map[string]EventType {
	m := make(map[string]EventType, len(eventNames))
	for i, n := range eventNames {
		m[n] = EventType(i)
	}
	return m
}()

// ParseEventType inverts String. It returns ok=false for unknown names.
func ParseEventType(s string) (EventType, bool) {
	t, ok := eventByName[s]
	return t, ok
}

// MarshalJSON encodes the type as its name, keeping JSONL traces readable
// and stable across taxonomy reorderings.
func (t EventType) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON decodes a type name.
func (t *EventType) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, ok := ParseEventType(s)
	if !ok {
		return fmt.Errorf("trace: unknown event type %q", s)
	}
	*t = v
	return nil
}

// Level grades event granularity so hot-path events can be filtered out
// without touching the emission sites.
type Level uint8

const (
	// LevelOff suppresses everything (only meaningful in a LevelFilter).
	LevelOff Level = iota
	// LevelRound keeps coarse events: rounds, ring closure, probes,
	// counters and gauges — one event per round/sample, not per message.
	LevelRound
	// LevelMsg keeps everything, including per-message and per-edge events.
	LevelMsg
)

// ParseLevel maps the CLI spellings to a Level.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "off":
		return LevelOff, true
	case "round", "coarse":
		return LevelRound, true
	case "msg", "fine", "all":
		return LevelMsg, true
	}
	return LevelOff, false
}

// LevelOf returns the intrinsic granularity of an event type.
func LevelOf(t EventType) Level {
	switch t {
	case EvRoundStart, EvRoundEnd, EvRingClosed, EvCounter, EvGauge, EvProbe, EvInvariant,
		EvLeaseExpire, EvSpan, EvShardRound:
		// Lease verdicts are rare and diagnostic gold under churn, so they
		// survive coarse traces; retransmissions and RTO updates are
		// per-frame noise and stay at LevelMsg. Spans and per-shard round
		// accounting are bounded by shards-per-round, so they survive coarse
		// traces too — a profiled round-level trace is exactly what
		// `tracectl perf` consumes.
		return LevelRound
	default:
		return LevelMsg
	}
}

// Event is one timestamped observation. T is simulated time for the
// message-level protocols and the round index for the round model; the
// producer documents which. Node/Peer identify the acting node and its
// counterpart (receiver, edge endpoint, wrap partner); Kind carries the
// message kind or metric name; Aux is a free-form qualifier (drop reason,
// variant name, ring side); Value is the numeric payload (latency, gauge
// reading, keep-set size, probe metric).
type Event struct {
	T     int64     `json:"t"`
	Type  EventType `json:"ev"`
	Node  ids.ID    `json:"node,omitempty"`
	Peer  ids.ID    `json:"peer,omitempty"`
	Kind  string    `json:"kind,omitempty"`
	Aux   string    `json:"aux,omitempty"`
	Value float64   `json:"val,omitempty"`
}

// String renders one event the way it appears in a JSONL trace, minus the
// encoding.
func (e Event) String() string {
	return fmt.Sprintf("t=%d %s node=%s peer=%s kind=%s aux=%s val=%g",
		e.T, e.Type, e.Node, e.Peer, e.Kind, e.Aux, e.Value)
}

// Tracer consumes events. Implementations must tolerate being shared by
// every layer of one simulation run and by the goroutine-based harnesses:
// the built-in sinks serialize Emit on a mutex (JSONLWriter's only copies
// the event; its own goroutine encodes it later, in the same order).
//
// The disabled state is a nil Tracer, not a no-op implementation: emission
// sites guard with `if tr != nil`, which keeps the hot paths free of
// interface calls when tracing is off.
type Tracer interface {
	Emit(e Event)
}

// Multi fans each event out to several sinks (e.g. a JSONL file plus the
// aggregating stats sink). Nil members are skipped.
type Multi []Tracer

// Emit forwards e to every non-nil member.
func (m Multi) Emit(e Event) {
	for _, t := range m {
		if t != nil {
			t.Emit(e)
		}
	}
}

// Tee combines tracers, dropping nils; it returns nil when nothing
// remains, preserving the "nil means disabled" fast path.
func Tee(ts ...Tracer) Tracer {
	var out Multi
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// LevelFilter drops events finer than Max before they reach Sink — the
// implementation of the -trace-level flag.
type LevelFilter struct {
	Sink Tracer
	Max  Level
}

// Emit forwards e only if its intrinsic level is within Max.
func (f LevelFilter) Emit(e Event) {
	if f.Sink != nil && LevelOf(e.Type) <= f.Max {
		f.Sink.Emit(e)
	}
}

// WithLevel wraps t so that only events at or below level pass. A nil t or
// LevelOff collapses to nil (disabled).
func WithLevel(t Tracer, level Level) Tracer {
	if t == nil || level == LevelOff {
		return nil
	}
	if level >= LevelMsg {
		return t
	}
	return LevelFilter{Sink: t, Max: level}
}
