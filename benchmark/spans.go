package main

import (
	"time"

	"repro/internal/ids"
	"repro/internal/phys"
)

// spanKind names a layer boundary the benchmark times from outside.
type spanKind uint8

const (
	spSetup    spanKind = iota // topology + engine + network + cluster construction
	spGenerate                 // graph.Generate
	spLinRun                   // linearize.Run
	spLinRound                 // one round, bounded by Config.OnRound calls
	spEngine                   // one Engine.RunUntil window
	spOracle                   // one cluster.Consistent() call
	spHandler                  // one protocol handler invocation (or packet injection)
	spSend                     // one Transport.Send / Broadcast call
	numSpanKinds
)

// span is one timed interval. Times are nanoseconds since the recorder's
// epoch; parent indexes the enclosing span in the same recorder, -1 at the
// root. All spans of one recorder belong to one workload repetition.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// recorder keeps every span of one traced repetition in memory. The nil
// recorder is the untraced state: begin and end are no-ops, so workload
// code calls them unconditionally. It is single-goroutine, like the event
// engine and the control path of the sharded executor it observes.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int32
}

// reset empties the recorder for the next repetition and keeps its memory:
// growing a slice to a million spans again on every repetition would cost
// more than the spans themselves.
func (r *recorder) reset() {
	r.epoch = time.Now()
	r.spans = r.spans[:0]
	r.stack = r.stack[:0]
}

func (r *recorder) begin(k spanKind) {
	if r == nil {
		return
	}
	parent := int32(-1)
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.stack = append(r.stack, int32(len(r.spans)))
	r.spans = append(r.spans, span{kind: k, parent: parent, start: int64(time.Since(r.epoch))})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	top := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[top].end = int64(time.Since(r.epoch))
}

// drop discards the innermost open span, which must be the last one begun.
func (r *recorder) drop() {
	if r == nil {
		return
	}
	r.stack = r.stack[:len(r.stack)-1]
	r.spans = r.spans[:len(r.spans)-1]
}

// spanTotal aggregates one span kind: how many, their summed duration, and
// their summed self time (duration minus the part child spans cover).
type spanTotal struct {
	count      int
	total, own time.Duration
}

// totals folds the spans recorded since index from. Spans nest strictly
// (one goroutine, begin/end pairs), so a span's children never overlap
// and its self time is its duration minus the sum of theirs.
func (r *recorder) totals(from int) [numSpanKinds]spanTotal {
	var out [numSpanKinds]spanTotal
	if r == nil {
		return out
	}
	covered := make([]int64, len(r.spans)-from)
	for i := from; i < len(r.spans); i++ {
		if p := int(r.spans[i].parent); p >= from {
			covered[p-from] += r.spans[i].end - r.spans[i].start
		}
	}
	for i := from; i < len(r.spans); i++ {
		s := r.spans[i]
		t := &out[s.kind]
		t.count++
		t.total += time.Duration(s.end - s.start)
		t.own += time.Duration(s.end - s.start - covered[i-from])
	}
	return out
}

// durations returns the duration of every span of kind k since index from.
func (r *recorder) durations(k spanKind, from int) []float64 {
	var out []float64
	for _, s := range r.spans[from:] {
		if s.kind == k {
			out = append(out, time.Duration(s.end-s.start).Seconds())
		}
	}
	return out
}

// spanTransport interposes on a phys.Transport: every handler the protocol
// registers and every Send/Broadcast it makes is timed as a span, and the
// calls pass through unchanged, so the run takes the same trajectory as on
// the bare transport.
type spanTransport struct {
	phys.Transport
	rec *recorder
}

// spanTransportFD is spanTransport over a transport with a failure
// detector. Protocols type-assert for phys.FailureDetector, so the wrapper
// must have the method exactly when the inner transport has it.
type spanTransportFD struct {
	spanTransport
	fd phys.FailureDetector
}

func (t spanTransportFD) SubscribeLeases(self ids.ID, cb phys.LeaseFunc) {
	t.fd.SubscribeLeases(self, cb)
}

func wrapTransport(inner phys.Transport, rec *recorder) phys.Transport {
	st := spanTransport{Transport: inner, rec: rec}
	if fd, ok := inner.(phys.FailureDetector); ok {
		return spanTransportFD{spanTransport: st, fd: fd}
	}
	return st
}

func (t spanTransport) Register(v ids.ID, h phys.Handler) {
	t.Transport.Register(v, phys.HandlerFunc(func(m phys.Message) {
		t.rec.begin(spHandler)
		h.HandleMessage(m)
		t.rec.end()
	}))
}

func (t spanTransport) Send(m phys.Message) bool {
	t.rec.begin(spSend)
	ok := t.Transport.Send(m)
	t.rec.end()
	return ok
}

func (t spanTransport) Broadcast(from ids.ID, kind string, payload any) int {
	t.rec.begin(spSend)
	n := t.Transport.Broadcast(from, kind, payload)
	t.rec.end()
	return n
}
