// Package sim is a deterministic discrete-event simulation engine.
//
// Protocol experiments in this reproduction run in one of two execution
// models, both provided here:
//
//   - The *event* model: a queue of timestamped events, fired in (time,
//     scheduling order), with a seeded random source. SSR, VRR and ISPRP
//     message exchanges run in this
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
	"math/rand"

	"repro/internal/trace"
)

// Time is simulated time in abstract ticks.
type Time int64

// Event is a callback scheduled at a point in simulated time. At and After
// allocate one per call; Arm schedules one whose storage the caller owns.
type Event struct {
	At Time
	Fn func()

	next   *Event  // the event queued behind this one in the same tick
	eng    *Engine // owning engine, for cancel tracing
	dead   bool    // cancelled
	queued bool    // in the queue: armed or scheduled, and not yet popped
}

// Cancel prevents the event from firing. Safe to call multiple times and
// after the event fired (then it is a no-op).
func (e *Event) Cancel() {
	if !e.dead && e.eng != nil && e.eng.tracer != nil {
		e.eng.tracer.Emit(trace.Event{T: int64(e.eng.now), Type: trace.EvSimCancel})
	}
	e.dead = true
}

// bucket is the FIFO of the events pending at one tick, linked through
// Event.next.
type bucket struct {
	at         Time
	head, tail *Event
}

// eventQueue is a calendar queue: one FIFO bucket per distinct pending
// tick and a min-heap of those ticks. Events fire in (At, scheduling
// order) — the order a heap over every event keyed by (At, sequence number)
// yields. Ticks are integers, At clamps to now and time never runs
// backwards, so within a tick that order is insertion order: a bucket
// stores it and no event carries a sequence number. The queue allocates per
// distinct tick (buckets are recycled through free), never per event.
type eventQueue struct {
	ticks   []Time // min-heap of the distinct pending ticks
	buckets map[Time]*bucket
	n       int // events queued, cancelled ones included

	min  *bucket   // bucket of ticks[0]; nil when not looked up yet
	last *bucket   // bucket of the latest push: most pushes are now+latency
	free []*bucket // retired buckets
}

// push appends ev to the bucket of ev.At.
func (q *eventQueue) push(ev *Event) {
	ev.queued = true
	q.n++
	b := q.last
	if b == nil || b.at != ev.At {
		if b = q.buckets[ev.At]; b == nil {
			b = q.open(ev.At)
		}
		q.last = b
	}
	if b.tail == nil {
		b.head = ev
	} else {
		b.tail.next = ev
	}
	b.tail = ev
}

// open adds an empty bucket for a tick that has none.
func (q *eventQueue) open(at Time) *bucket {
	var b *bucket
	if k := len(q.free); k > 0 {
		b, q.free = q.free[k-1], q.free[:k-1]
	} else {
		b = new(bucket)
	}
	b.at = at
	q.buckets[at] = b
	// Sift the new tick up the heap.
	i := len(q.ticks)
	q.ticks = append(q.ticks, at)
	for i > 0 {
		parent := (i - 1) / 2
		if q.ticks[parent] <= at {
			break
		}
		q.ticks[i] = q.ticks[parent]
		i = parent
	}
	q.ticks[i] = at
	if i == 0 {
		q.min = b
	}
	return b
}

// peek returns the next event in firing order without removing it. The
// queue must not be empty.
func (q *eventQueue) peek() *Event {
	if q.min == nil {
		q.min = q.buckets[q.ticks[0]]
	}
	return q.min.head
}

// pop removes and returns the next event in firing order. The queue must
// not be empty.
func (q *eventQueue) pop() *Event {
	ev := q.peek()
	b := q.min
	b.head = ev.next
	if b.head == nil {
		q.retire(b)
	}
	ev.queued, ev.next = false, nil
	q.n--
	return ev
}

// retire removes the emptied bucket of the minimum tick.
func (q *eventQueue) retire(b *bucket) {
	delete(q.buckets, b.at)
	b.tail = nil
	q.free = append(q.free, b)
	if q.last == b {
		q.last = nil
	}
	q.min = nil
	// Move the heap's last tick to the root and sift it down.
	k := len(q.ticks) - 1
	at := q.ticks[k]
	q.ticks = q.ticks[:k]
	if k == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= k {
			break
		}
		if c+1 < k && q.ticks[c+1] < q.ticks[c] {
			c++
		}
		if at <= q.ticks[c] {
			break
		}
		q.ticks[i] = q.ticks[c]
		i = c
	}
	q.ticks[i] = at
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; node goroutine experiments wrap it behind a channel (see
// package phys).
type Engine struct {
	now    Time
	queue  eventQueue
	rng    *rand.Rand
	events int64 // total events executed
	tracer trace.Tracer
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithTracer installs the engine's tracer, which hears each cancellation as
// an EvSimCancel; a firing emits nothing. Without this option the engine
// keeps the zero-cost nil-tracer fast path.
func WithTracer(t trace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// NewEngine returns an engine whose randomness is derived from seed,
// configured by the given options.
func NewEngine(seed int64, opts ...Option) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed))}
	e.queue.buckets = make(map[Time]*bucket)
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

// Pending returns the number of events in the queue. A cancelled event
// stays queued, and counted, until it reaches the head of the queue and is
// popped unfired; RunUntilHolds' drain test reads this count.
func (e *Engine) Pending() int { return e.queue.n }

// At schedules fn at absolute time t (clamped to now if in the past) and
// returns a cancellable handle.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := &Event{At: t, Fn: fn, eng: e}
	e.queue.push(ev)
	return ev
}

// After schedules fn d ticks from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Arm schedules ev, whose storage and Fn the caller owns, d ticks from now
// (negative d clamps to 0), ordered among the other events exactly as
// After(d, ev.Fn) would be. It allocates nothing and returns no handle. ev
// must not be pending: the caller may arm it again, or rebind Fn, only from
// its own firing on. A fired or never-armed Event is not pending.
func (e *Engine) Arm(ev *Event, d Time) {
	if ev.queued {
		panic("sim: Arm of a pending event")
	}
	if d < 0 {
		d = 0
	}
	ev.At, ev.eng, ev.dead = e.now+d, e, false
	e.queue.push(ev)
}

// Step fires the next event and reports whether one existed.
func (e *Engine) Step() bool {
	for e.queue.n > 0 {
		ev := e.queue.pop()
		if ev.dead {
			continue
		}
		e.now = ev.At
		e.events++
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
	for e.queue.n > 0 {
		if stop != nil && stop() {
			break
		}
		// Peek: don't cross the deadline.
		next := e.queue.peek()
		if next.dead {
			e.queue.pop()
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
		if next >= deadline || e.queue.n == 0 {
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
