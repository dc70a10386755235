// Package perf is the deterministic-safe performance profiler: a pure
// span emitter that measures wall time, per-shard busy time, load
// imbalance and allocation deltas around the round executor's phases
// (linearize.Engine.Run) and writes them as trace.EvSpan events.
//
// The determinism contract: a Profiler only *observes*. It never feeds a
// measurement back into protocol state, so a profiled run and an
// unprofiled run of the same seed produce byte-identical graphs, stats
// and — after stripping EvSpan events — byte-identical trace streams.
// Span *values* are wall-clock and vary run to run; span *ordering* is
// deterministic because every method is called from the executor's
// sequential control goroutine (per-shard durations are recorded
// race-free during the parallel phases, one writer per shard slot, and
// reported in shard order after the phase barrier).
//
// The profiler keeps no aggregates: trace.Analysis.Perf() is the single
// source of truth for totals, so live runs and replayed JSONL traces
// yield the same report.
package perf

import (
	"runtime"
	"strconv"
	"time"

	"repro/internal/trace"
)

// Profiler emits EvSpan events into a tracer. The nil Profiler is the
// disabled state: every method is nil-receiver-safe, so call sites need
// no guards and a nil Profiler costs one predictable branch.
//
// A Profiler is single-goroutine: the round loop calls its methods only
// from the sequential control path, never from a shard's worker.
type Profiler struct {
	tr trace.Tracer

	shardBusy []float64 // per-round parallel busy ns, indexed by shard
	m0        runtime.MemStats
}

// New returns a profiler emitting into tr, or nil (disabled) when tr is
// nil — preserving the trace package's "nil means off" idiom.
func New(tr trace.Tracer) *Profiler {
	if tr == nil {
		return nil
	}
	return &Profiler{tr: tr}
}

func (p *Profiler) emit(round int64, kind, aux string, val float64) {
	p.tr.Emit(trace.Event{T: round, Type: trace.EvSpan, Kind: kind, Aux: aux, Value: val})
}

// RoundStart opens a round: resets the per-shard busy accumulators and
// latches the allocator counters for the end-of-round delta.
func (p *Profiler) RoundStart(round int) {
	if p == nil {
		return
	}
	for i := range p.shardBusy {
		p.shardBusy[i] = 0
	}
	runtime.ReadMemStats(&p.m0)
}

// PhaseTime records one phase's wall time as a "phase/<name>" span.
// The round loop's phase names are begin, prepare, execute, finish, end;
// prepare and execute are the parallel share (see
// PerfReport.SeqShare).
func (p *Profiler) PhaseTime(round int, phase string, d time.Duration) {
	if p == nil {
		return
	}
	p.emit(int64(round), "phase/"+phase, "", float64(d.Nanoseconds()))
}

// ShardTime records one shard's busy time inside a parallel phase as a
// "shard/<phase>" span (Aux: the shard index), and feeds the round's
// imbalance accumulator. Called after the phase barrier, in shard order.
func (p *Profiler) ShardTime(round int, phase string, shard int, d time.Duration) {
	if p == nil {
		return
	}
	for shard >= len(p.shardBusy) {
		p.shardBusy = append(p.shardBusy, 0)
	}
	ns := float64(d.Nanoseconds())
	p.shardBusy[shard] += ns
	p.emit(int64(round), "shard/"+phase, strconv.Itoa(shard), ns)
}

// RoundEnd closes a round: emits the load-imbalance ratio (max/mean of
// per-shard parallel busy time — 1.0 is perfectly balanced) and the
// allocator deltas since RoundStart ("allocs" bytes, "mallocs" objects,
// "gc" completed cycles).
func (p *Profiler) RoundEnd(round int) {
	if p == nil {
		return
	}
	if len(p.shardBusy) > 0 {
		var sum, max float64
		for _, b := range p.shardBusy {
			sum += b
			if b > max {
				max = b
			}
		}
		if mean := sum / float64(len(p.shardBusy)); mean > 0 {
			p.emit(int64(round), "imbalance", "", max/mean)
		}
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p.emit(int64(round), "allocs", "", float64(m1.TotalAlloc-p.m0.TotalAlloc))
	p.emit(int64(round), "mallocs", "", float64(m1.Mallocs-p.m0.Mallocs))
	p.emit(int64(round), "gc", "", float64(m1.NumGC-p.m0.NumGC))
}

// Start opens an ad-hoc span; pair with End. On a nil profiler it
// returns the zero time and End ignores it.
func (p *Profiler) Start() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// End closes an ad-hoc span opened by Start, e.g. the per-round CSR
// snapshot rebuild ("snapshot/rebuild", Aux: the variant).
func (p *Profiler) End(round int, kind, aux string, start time.Time) {
	if p == nil {
		return
	}
	p.emit(int64(round), kind, aux, float64(time.Since(start).Nanoseconds()))
}
