// Package sim is a deterministic discrete-event simulation engine.
//
// Protocol experiments in this reproduction run in one of two execution
// models, both provided here:
//
//   - The *event* model: a priority queue of timestamped events with a
//     seeded random source. SSR, VRR and ISPRP message exchanges run in this
//     model, including per-link latencies and losses.
//   - The *round* model: the synchronous rounds that the self-stabilization
//     literature (Onus et al.) analyzes — in each round every node observes
//     the current global state and all actions apply simultaneously. The
//     abstract linearization engine runs in this model. A random sequential
//     daemon is also provided, because a self-stabilizing algorithm must
//     converge under any fair scheduler.
//
// All randomness flows through the engine's seeded source, so every
// experiment is reproducible from its seed.
package sim

import (
	"container/heap"
	"math/rand"

	"repro/internal/trace"
)

// Time is simulated time in abstract ticks.
type Time int64

// Event is a callback scheduled at a point in simulated time.
type Event struct {
	At Time
	Fn func()

	seq   int64   // tie-break: FIFO among same-time events, for determinism
	index int     // heap bookkeeping
	dead  bool    // cancelled
	eng   *Engine // owning engine, for cancel tracing
}

// Cancel prevents the event from firing. Safe to call multiple times and
// after the event fired (then it is a no-op).
func (e *Event) Cancel() {
	if !e.dead && e.eng != nil && e.eng.tracer != nil {
		e.eng.tracer.Emit(trace.Event{T: int64(e.eng.now), Type: trace.EvSimCancel})
	}
	e.dead = true
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; node goroutine experiments wrap it behind a channel (see
// package phys).
type Engine struct {
	now    Time
	queue  eventQueue
	seq    int64
	rng    *rand.Rand
	events int64 // total events executed
	tracer trace.Tracer
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithTracer installs the engine's tracer. Firings emit EvSimFire with the
// remaining queue depth as a gauge value; cancellations emit EvSimCancel.
// Without this option the engine keeps the zero-cost nil-tracer fast path.
func WithTracer(t trace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// NewEngine returns an engine whose randomness is derived from seed,
// configured by the given options.
func NewEngine(seed int64, opts ...Option) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed))}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's seeded random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventsExecuted returns how many events have fired so far.
func (e *Engine) EventsExecuted() int64 { return e.events }

// Tracer returns the engine's tracer (nil when tracing is disabled).
func (e *Engine) Tracer() trace.Tracer { return e.tracer }

// Pending returns the number of queued (not yet fired or cancelled) events.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn at absolute time t (clamped to now if in the past) and
// returns a cancellable handle.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := &Event{At: t, Fn: fn, seq: e.seq, eng: e}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn d ticks from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Step fires the next event and reports whether one existed.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.dead {
			continue
		}
		e.now = ev.At
		e.events++
		if e.tracer != nil {
			e.tracer.Emit(trace.Event{T: int64(e.now), Type: trace.EvSimFire, Value: float64(len(e.queue))})
		}
		ev.Fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty or the event budget is
// exhausted. A budget <= 0 means unlimited. It returns the number of events
// fired by this call.
func (e *Engine) Run(budget int64) int64 {
	var fired int64
	for budget <= 0 || fired < budget {
		if !e.Step() {
			break
		}
		fired++
	}
	return fired
}

// RunUntil fires events until simulated time exceeds deadline, the queue
// drains, or stop() returns true (checked between events). It returns the
// number of events fired.
func (e *Engine) RunUntil(deadline Time, stop func() bool) int64 {
	var fired int64
	for len(e.queue) > 0 {
		if stop != nil && stop() {
			break
		}
		// Peek: don't cross the deadline.
		next := e.queue[0]
		if next.dead {
			heap.Pop(&e.queue)
			continue
		}
		if next.At > deadline {
			break
		}
		e.Step()
		fired++
	}
	return fired
}

// RunUntilHolds advances the simulation in steps of every ticks, testing
// holds after each step, until holds reports true, the deadline is reached
// or the queue drains. It returns the time it stopped at and whether holds
// was true there — the bootstrap clusters' wait-for-consistency loop.
func (e *Engine) RunUntilHolds(deadline, every Time, holds func() bool) (Time, bool) {
	for next := e.now + every; ; next += every {
		if next > deadline {
			next = deadline
		}
		e.RunUntil(next, nil)
		if holds() {
			return e.now, true
		}
		if next >= deadline || len(e.queue) == 0 {
			return e.now, false
		}
	}
}

// Every calls fn every d ticks, starting one interval from now, until fn
// returns false. d <= 0 schedules nothing.
func (e *Engine) Every(d Time, fn func() bool) {
	if d <= 0 {
		return
	}
	var tick func()
	tick = func() {
		if fn() {
			e.After(d, tick)
		}
	}
	e.After(d, tick)
}
