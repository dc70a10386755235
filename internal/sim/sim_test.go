package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now = %d, want 30", e.Now())
	}
	if e.EventsExecuted() != 3 {
		t.Errorf("EventsExecuted = %d, want 3", e.EventsExecuted())
	}
}

func TestEngineFIFOAmongSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	ev.Cancel()
	ev.Cancel() // idempotent
	e.Run(0)
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}

func TestEngineAfterAndPastClamp(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(100, func() {
		e.At(50, func() { at = e.Now() }) // in the past: clamps to now
	})
	e.Run(0)
	if at != 100 {
		t.Errorf("past event should run at now=100, ran at %d", at)
	}

	e2 := NewEngine(1)
	var order []int
	e2.After(5, func() {
		order = append(order, 1)
		e2.After(-3, func() { order = append(order, 2) }) // negative delay clamps
	})
	e2.Run(0)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestEngineBudget(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		e.After(1, tick)
	}
	e.After(1, tick)
	if fired := e.Run(25); fired != 25 {
		t.Errorf("Run fired %d, want 25", fired)
	}
	if count != 25 {
		t.Errorf("count = %d, want 25", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		e.After(10, tick)
	}
	e.After(10, tick)
	e.RunUntil(55, nil)
	if count != 5 {
		t.Errorf("count = %d, want 5 (events at 10..50)", count)
	}
	if e.Now() != 50 {
		t.Errorf("Now = %d, want 50", e.Now())
	}
	// stop() halts immediately.
	e.RunUntil(1000, func() bool { return true })
	if count != 5 {
		t.Error("stop() should prevent further events")
	}
	// Cancelled head-of-queue events are skipped.
	e3 := NewEngine(1)
	ev := e3.At(5, func() { t.Error("cancelled event ran") })
	ev.Cancel()
	ran := false
	e3.At(6, func() { ran = true })
	e3.RunUntil(10, nil)
	if !ran {
		t.Error("live event after cancelled one did not run")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var trace []int64
		var step func()
		step = func() {
			trace = append(trace, int64(e.Now()))
			if len(trace) < 50 {
				e.After(Time(1+e.Rand().Intn(10)), step)
			}
		}
		e.After(1, step)
		e.Run(0)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different trace lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("engine is not deterministic for a fixed seed")
		}
	}
}

func TestEventTimeMonotonicProperty(t *testing.T) {
	// Property: firing order is non-decreasing in time for arbitrary
	// schedules.
	f := func(delays []uint8) bool {
		e := NewEngine(3)
		var times []Time
		for _, d := range delays {
			e.At(Time(d), func() { times = append(times, e.Now()) })
		}
		e.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i-1] > times[i] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchedulerString(t *testing.T) {
	if Synchronous.String() != "synchronous" || RandomSequential.String() != "random-sequential" || Scheduler(99).String() != "unknown" {
		t.Error("Scheduler.String broken")
	}
}

// TestRunUntilHolds pins the poll loop the bootstrap clusters wait in: the
// predicate is tested every `every` ticks (and once at the deadline), and
// the loop ends on success, at the deadline, or when the queue drains.
func TestRunUntilHolds(t *testing.T) {
	for _, tc := range []struct {
		name            string
		lastEvent, flip Time // a chain of events up to lastEvent; holds from flip on
		wantAt          Time
		wantOK          bool
		wantChecks      int
	}{
		{"holds at a poll", 100, 20, 24, true, 3},
		{"deadline first", 100, 90, 50, false, 7},
		{"queue drains", 10, 90, 10, false, 2},
	} {
		e := NewEngine(1)
		var step func()
		step = func() {
			if e.Now() < tc.lastEvent {
				e.After(1, step)
			}
		}
		e.After(1, step)
		checks := 0
		at, ok := e.RunUntilHolds(50, 8, func() bool { checks++; return e.Now() >= tc.flip })
		if at != tc.wantAt || ok != tc.wantOK || checks != tc.wantChecks {
			t.Errorf("%s: stopped at %d ok=%v after %d checks, want %d %v %d",
				tc.name, at, ok, checks, tc.wantAt, tc.wantOK, tc.wantChecks)
		}
	}
}

// TestEvery: the callback fires one interval from now and then every
// interval until it returns false; a non-positive interval schedules nothing.
func TestEvery(t *testing.T) {
	e := NewEngine(1)
	var at []Time
	e.Every(5, func() bool { at = append(at, e.Now()); return len(at) < 3 })
	e.Every(0, func() bool { t.Error("Every(0) must not fire"); return false })
	e.Run(0)
	if len(at) != 3 || at[0] != 5 || at[1] != 10 || at[2] != 15 || e.Pending() != 0 {
		t.Errorf("fired at %v with %d pending, want [5 10 15] and none", at, e.Pending())
	}
}

// TestPendingCountsCancelledUntilPopped pins what Pending counts: a
// cancelled event stays in the queue, and in the count, until it reaches
// the head and is popped unfired.
func TestPendingCountsCancelledUntilPopped(t *testing.T) {
	e := NewEngine(1)
	e.At(1, func() {})
	dead := e.At(2, func() { t.Error("cancelled event fired") })
	e.At(3, func() {})
	dead.Cancel()
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after cancelling a non-head event, want 3", e.Pending())
	}
	e.Step() // fires t=1; the dead event is now the head, still queued
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d with a dead head, want 2", e.Pending())
	}
	e.Step() // pops the dead head and fires t=3
	if e.Pending() != 0 || e.Now() != 3 || e.EventsExecuted() != 2 {
		t.Fatalf("Pending = %d, Now = %d, executed = %d; want 0, 3, 2", e.Pending(), e.Now(), e.EventsExecuted())
	}
}

// TestRunUntilDropsDeadHeadOnly: on its way to the deadline check RunUntil
// pops a cancelled head, but a cancelled event behind a live one that lies
// past the deadline stays queued.
func TestRunUntilDropsDeadHeadOnly(t *testing.T) {
	e := NewEngine(1)
	e.At(5, func() { t.Error("cancelled event fired") }).Cancel()
	e.At(20, func() {})
	e.At(30, func() { t.Error("cancelled event fired") }).Cancel()
	if fired := e.RunUntil(10, nil); fired != 0 {
		t.Fatalf("RunUntil fired %d events, want 0", fired)
	}
	if e.Pending() != 2 || e.Now() != 0 {
		t.Fatalf("Pending = %d, Now = %d; want the live event and the dead one behind it, at time 0", e.Pending(), e.Now())
	}
}

// TestArm: a caller-owned event fires like After's, can be armed again from
// its own firing on, and must not be armed while pending.
func TestArm(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	var ev Event
	ev.Fn = func() {
		got = append(got, e.Now())
		if e.Now() < 7 {
			e.Arm(&ev, 2)
		}
	}
	e.After(3, func() { got = append(got, -1) })
	e.Arm(&ev, 3) // same tick as the After above, scheduled later: fires second
	e.Run(0)
	if want := []Time{-1, 3, 5, 7}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	e.Arm(&ev, -4) // fired, so not pending; a negative delay clamps to now
	if ev.At != 7 {
		t.Errorf("Arm(-4) at now=7 scheduled for %d, want 7", ev.At)
	}
	defer func() {
		if recover() == nil {
			t.Error("Arm of a pending event did not panic")
		}
	}()
	e.Arm(&ev, 1)
}

// refEvent, refQueue and refEngine are the engine this package had before
// the calendar queue — a container/heap of every pending event ordered by
// (At, seq) — kept as the reference model the differential test and
// FuzzEngineOrder compare the Engine against.
type refEvent struct {
	at   Time
	fn   func()
	seq  int64
	dead bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type refEngine struct {
	now    Time
	queue  refQueue
	seq    int64
	events int64
}

func (e *refEngine) at(t Time, fn func()) *refEvent {
	if t < e.now {
		t = e.now
	}
	ev := &refEvent{at: t, fn: fn, seq: e.seq}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) after(d Time, fn func()) *refEvent {
	if d < 0 {
		d = 0
	}
	return e.at(e.now+d, fn)
}

func (e *refEngine) step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.events++
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) run(budget int64) int64 {
	var fired int64
	for budget <= 0 || fired < budget {
		if !e.step() {
			break
		}
		fired++
	}
	return fired
}

func (e *refEngine) runUntil(deadline Time, stop func() bool) int64 {
	var fired int64
	for len(e.queue) > 0 {
		if stop != nil && stop() {
			break
		}
		next := e.queue[0]
		if next.dead {
			heap.Pop(&e.queue)
			continue
		}
		if next.at > deadline {
			break
		}
		e.step()
		fired++
	}
	return fired
}

func (e *refEngine) runUntilHolds(deadline, every Time, holds func() bool) (Time, bool) {
	for next := e.now + every; ; next += every {
		if next > deadline {
			next = deadline
		}
		e.runUntil(next, nil)
		if holds() {
			return e.now, true
		}
		if next >= deadline || len(e.queue) == 0 {
			return e.now, false
		}
	}
}

// engineOps is the surface a script drives, once over the Engine and once
// over the reference. at and after return the handle's Cancel; arm
// schedules the caller-owned event of a slot.
type engineOps struct {
	at, after     func(t Time, fn func()) (cancel func())
	arm           func(slot int, d Time, fn func())
	step          func() bool
	run           func(budget int64) int64
	runUntil      func(deadline Time, stop func() bool) int64
	runUntilHolds func(deadline, every Time, holds func() bool) (Time, bool)
	now           func() Time
	pending       func() int
	executed      func() int64
}

const scriptSlots = 4

func realOps() engineOps {
	e := NewEngine(1)
	slots := new([scriptSlots]Event)
	return engineOps{
		at:    func(t Time, fn func()) func() { return e.At(t, fn).Cancel },
		after: func(d Time, fn func()) func() { return e.After(d, fn).Cancel },
		arm: func(slot int, d Time, fn func()) {
			slots[slot].Fn = fn
			e.Arm(&slots[slot], d)
		},
		step: e.Step, run: e.Run, runUntil: e.RunUntil, runUntilHolds: e.RunUntilHolds,
		now: e.Now, pending: e.Pending, executed: e.EventsExecuted,
	}
}

func refOps() engineOps {
	e := new(refEngine)
	cancel := func(ev *refEvent) func() { return func() { ev.dead = true } }
	return engineOps{
		at:    func(t Time, fn func()) func() { return cancel(e.at(t, fn)) },
		after: func(d Time, fn func()) func() { return cancel(e.after(d, fn)) },
		arm:   func(_ int, d Time, fn func()) { e.after(d, fn) },
		step:  e.step, run: e.run, runUntil: e.runUntil, runUntilHolds: e.runUntilHolds,
		now:      func() Time { return e.now },
		pending:  func() int { return len(e.queue) },
		executed: func() int64 { return e.events },
	}
}

// playScript decodes script into engine operations, applies them to ops
// and returns everything observable: per firing the event's number, Now
// and Pending, and per operation its result followed by Now, Pending and
// EventsExecuted.
//
// Each operation is an opcode byte and up to two argument bytes (missing
// bytes read as 0). A scheduling operation's last argument is the event's
// behaviour when it fires: the low two bits count the events it schedules
// from inside its Fn, at now+0..3, whose own behaviour is the remaining
// bits shifted down, so re-entrant chains end; bit 6 makes it cancel an
// earlier handle, and an armed event with bit 7 set arms itself again.
func playScript(script []byte, ops engineOps) []int64 {
	var log []int64
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	var cancels []func()
	var slotPending [scriptSlots]bool
	var lastTick Time
	events := 0

	var fire func(id int, behaviour byte) func()
	schedule := func(after bool, t Time, behaviour byte) {
		events++
		fn := fire(events, behaviour)
		if after {
			lastTick = ops.now() + max(t, 0)
			cancels = append(cancels, ops.after(t, fn))
		} else {
			lastTick = max(t, ops.now())
			cancels = append(cancels, ops.at(t, fn))
		}
	}
	fire = func(id int, behaviour byte) func() {
		return func() {
			log = append(log, int64(id), int64(ops.now()), int64(ops.pending()))
			for k := 0; k < int(behaviour&3); k++ {
				schedule(true, Time(behaviour>>(2+2*k))&3, behaviour>>(3+k))
			}
			if behaviour&0x40 != 0 {
				cancels[id%len(cancels)]()
			}
		}
	}
	var armed func(slot, id int, behaviour byte) func()
	armed = func(slot, id int, behaviour byte) func() {
		inner := fire(id, behaviour&0x3f)
		return func() {
			slotPending[slot] = false
			inner()
			if behaviour&0x80 != 0 {
				slotPending[slot] = true
				ops.arm(slot, Time(behaviour>>4)&7, armed(slot, id, behaviour<<1))
			}
		}
	}

	for len(script) > 0 {
		op := next() % 12
		var ret int64
		switch op {
		case 0: // At, near: now..now+3
			schedule(false, ops.now()+Time(next()&3), next())
		case 1: // At, far
			schedule(false, ops.now()+Time(next())*17, next())
		case 2: // At, in the past
			schedule(false, ops.now()-Time(next()), next())
		case 3: // At, the tick of the latest scheduling again
			schedule(false, lastTick, next())
		case 4: // After, negative delays included
			schedule(true, Time(int8(next())), next())
		case 5: // Arm, unless the slot's event is pending
			slot := int(next()) % scriptSlots
			behaviour := next()
			if !slotPending[slot] {
				events++
				slotPending[slot] = true
				ops.arm(slot, Time(int8(behaviour<<2))>>2, armed(slot, events, behaviour))
			}
		case 6: // Cancel any handle: pending, fired or already cancelled
			if i := int(next()); len(cancels) > 0 {
				cancels[i%len(cancels)]()
			}
		case 7:
			if ops.step() {
				ret = 1
			}
		case 8: // Run; a budget of 0 drains the queue
			ret = ops.run(int64(next() & 15))
		case 9, 10: // RunUntil, with and without a stop function
			deadline := ops.now() + Time(next())
			var stop func() bool
			if calls := int(next() & 7); op == 10 {
				stop = func() bool { calls--; return calls < 0 }
			}
			ret = ops.runUntil(deadline, stop)
		case 11:
			deadline, arg := ops.now()+Time(next()), next()
			checks := int(arg & 7)
			at, ok := ops.runUntilHolds(deadline, 1+Time(arg>>4), func() bool { checks--; return checks < 0 })
			if ret = int64(at) << 1; ok {
				ret |= 1
			}
		}
		log = append(log, -int64(op)-1, ret, int64(ops.now()), int64(ops.pending()), ops.executed())
	}
	return log
}

// checkScript fails unless the Engine and the reference heap agree on
// everything script makes observable.
func checkScript(t *testing.T, script []byte) {
	t.Helper()
	got, want := playScript(script, realOps()), playScript(script, refOps())
	if slices.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("script %x: engine and reference heap diverge at log entry %d:\n engine    %v\n reference %v",
		script, i, got[i:min(i+10, len(got))], want[i:min(i+10, len(want))])
}

// TestEngineMatchesReferenceHeap is the differential test: random scripts
// of every scheduling and running operation, re-entrant ones included.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12000; i++ {
		script := make([]byte, 1+rng.Intn(120))
		rng.Read(script)
		checkScript(t, script)
	}
}

// FuzzEngineOrder hands the script decoder to the fuzzer.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0x45, 0, 1, 0, 7, 7, 7})                       // same-tick children behind queued events
	f.Add([]byte{1, 9, 0, 3, 0, 3, 0x0b, 6, 1, 8, 0})                 // duplicate far ticks, cancel, drain
	f.Add([]byte{5, 0, 0x93, 5, 0, 1, 8, 0})                          // self-re-arming timer; Arm skipped while pending
	f.Add([]byte{0, 2, 0, 6, 0, 6, 0, 0, 3, 0, 9, 1, 0, 10, 9, 2})    // dead head before a deadline
	f.Add([]byte{2, 200, 0x47, 4, 0x80, 2, 11, 40, 0x23, 7, 6, 0, 7}) // past and negative clamp, RunUntilHolds
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<12 {
			t.Skip()
		}
		checkScript(t, script)
	})
}

// BenchmarkEngineQueue times one At plus one Step at a steady queue depth
// with a no-op callback, the loops of benchmark/micro.go's queueMicros:
// dense8 keeps depth 2000 on 8 distinct ticks (a protocol run: latency 1
// and a few timers), d1k and d100k draw every tick from a range as wide as
// the depth (nearly every event alone in its tick, the queue's worst
// case), and cancel adds a scheduled-then-cancelled event per step.
func BenchmarkEngineQueue(b *testing.B) {
	noop := func() {}
	for _, bc := range []struct {
		name         string
		depth, ticks int
		cancel       bool
	}{
		{"dense8", 2000, 8, false},
		{"d1k", 1000, 1000, false},
		{"d100k", 100000, 100000, false},
		{"cancel", 1000, 1000, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine(1)
			for i := 0; i < bc.depth; i++ {
				e.At(Time(e.Rand().Intn(bc.ticks)), noop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.cancel {
					e.At(e.Now()+Time(e.Rand().Intn(bc.ticks)), noop).Cancel()
				}
				e.At(e.Now()+Time(e.Rand().Intn(bc.ticks)), noop)
				e.Step()
			}
		})
	}
}

// recordingTracer is a minimal sink for option-wiring tests.
type recordingTracer struct{ events []trace.Event }

func (r *recordingTracer) Emit(e trace.Event) { r.events = append(r.events, e) }

func TestEngineOptions(t *testing.T) {
	rec := recordingTracer{}
	e := NewEngine(1, WithTracer(&rec))
	if e.tracer != &rec {
		t.Fatal("WithTracer did not install the tracer")
	}
	e = NewEngine(1, WithTracer(nil))
	if e.tracer != nil {
		t.Fatal("WithTracer(nil) must leave no tracer")
	}
}
