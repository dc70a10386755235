package sim

import (
	"testing"
	"testing/quick"
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
