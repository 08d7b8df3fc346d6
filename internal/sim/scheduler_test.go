package sim

import (
	"testing"
	"testing/quick"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30*Microsecond, func() { order = append(order, 3) })
	s.At(10*Microsecond, func() { order = append(order, 1) })
	s.At(20*Microsecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 30*Microsecond {
		t.Fatalf("clock should end at last event, got %v", s.Now())
	}
}

func TestSchedulerSimultaneousFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestSchedulerAfterAndNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var got []Time
	s.After(5*Microsecond, func() {
		got = append(got, s.Now())
		s.After(7*Microsecond, func() {
			got = append(got, s.Now())
		})
	})
	s.Run()
	if len(got) != 2 || got[0] != 5*Microsecond || got[1] != 12*Microsecond {
		t.Fatalf("nested scheduling wrong: %v", got)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.After(Millisecond, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() should report true")
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []string
	s.At(10*Microsecond, func() { fired = append(fired, "a") })
	s.At(20*Microsecond, func() { fired = append(fired, "b") })
	s.At(30*Microsecond, func() { fired = append(fired, "c") })
	s.RunUntil(20 * Microsecond)
	if len(fired) != 2 {
		t.Fatalf("RunUntil should fire events at or before the bound, got %v", fired)
	}
	if s.Now() != 20*Microsecond {
		t.Fatalf("clock should sit at the bound, got %v", s.Now())
	}
	s.RunUntil(25 * Microsecond)
	if s.Now() != 25*Microsecond {
		t.Fatalf("RunUntil with no events should still advance the clock, got %v", s.Now())
	}
	s.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining event should fire on Run, got %v", fired)
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	n := 0
	s.At(1*Microsecond, func() { n++; s.Stop() })
	s.At(2*Microsecond, func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("Stop should halt dispatch, fired %d", n)
	}
	s.Run()
	if n != 2 {
		t.Fatalf("Run should resume after Stop, fired %d", n)
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10*Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(5*Microsecond, func() {})
	})
	s.Run()
}

func TestRepeaterExactPeriod(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	r := s.Every(12*Millisecond, func() { ticks = append(ticks, s.Now()) })
	s.RunUntil(100 * Millisecond)
	r.Stop()
	if len(ticks) != 8 {
		t.Fatalf("want 8 ticks in 100 ms at 12 ms, got %d", len(ticks))
	}
	for i, tk := range ticks {
		want := Time(i+1) * 12 * Millisecond
		if tk != want {
			t.Fatalf("tick %d at %v, want %v (period must not drift)", i, tk, want)
		}
	}
}

func TestRepeaterStopInsideCallback(t *testing.T) {
	s := NewScheduler()
	n := 0
	var r *Repeater
	r = s.Every(Millisecond, func() {
		n++
		if n == 3 {
			r.Stop()
		}
	})
	s.Run()
	if n != 3 {
		t.Fatalf("repeater should stop after 3 ticks, got %d", n)
	}
}

func TestSchedulerPendingCountsLiveEvents(t *testing.T) {
	s := NewScheduler()
	e1 := s.After(Millisecond, func() {})
	s.After(2*Millisecond, func() {})
	if s.Pending() != 2 {
		t.Fatalf("want 2 pending, got %d", s.Pending())
	}
	e1.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("want 1 pending after cancel, got %d", s.Pending())
	}
}

func TestSchedulerEventFreeListReuse(t *testing.T) {
	s := NewScheduler()
	e1 := s.After(Microsecond, func() {})
	s.Run()
	// The fired event must be recycled: the next scheduling reuses the
	// same object instead of allocating.
	e2 := s.After(3*Microsecond, func() {})
	if e1 != e2 {
		t.Fatal("fired event was not recycled through the free list")
	}
	if e2.Cancelled() || e2.When() != 4*Microsecond {
		t.Fatalf("recycled event kept stale state: cancelled=%t when=%v", e2.Cancelled(), e2.When())
	}
	fired := false
	e3 := s.After(Microsecond, func() { fired = true })
	e3.Cancel()
	e4 := s.After(Microsecond, func() {})
	if e3 != e4 {
		t.Fatal("cancelled event was not recycled")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled callback ran after its event was recycled")
	}
}

func TestSchedulerCancelRemovesEagerly(t *testing.T) {
	s := NewScheduler()
	var events []*Event
	for i := 0; i < 100; i++ {
		events = append(events, s.At(Time(i+1)*Millisecond, func() {}))
	}
	for i, e := range events {
		if i%2 == 0 {
			e.Cancel()
		}
	}
	// Cancelled events leave the heap immediately — the queue must not
	// grow with dead entries on long runs with many cancels.
	if got := s.Pending(); got != 50 {
		t.Fatalf("want 50 pending after eager removal, got %d", got)
	}
	queued := len(s.overflow)
	for _, head := range s.wheel {
		for e := head; e != nil; e = e.next {
			queued++
		}
	}
	if queued != 50 {
		t.Fatalf("queues still hold %d entries, want 50", queued)
	}
	fired := 0
	for s.step(maxTime) {
		fired++
	}
	if fired != 50 {
		t.Fatalf("want the 50 live events to fire, got %d", fired)
	}
	// Double-cancel and cancel-after-run stay no-ops.
	events[1].Cancel()
}

func TestSchedulerCancelDuringRun(t *testing.T) {
	s := NewScheduler()
	var firedB bool
	var eb *Event
	s.At(Millisecond, func() { eb.Cancel() })
	eb = s.At(2*Millisecond, func() { firedB = true })
	s.At(3*Millisecond, func() {})
	s.Run()
	if firedB {
		t.Fatal("event cancelled mid-run still fired")
	}
	if s.Now() != 3*Millisecond {
		t.Fatalf("run should continue past the cancellation, now %v", s.Now())
	}
}

// Property: for any set of non-negative delays, events dispatch in
// non-decreasing time order and the clock never moves backwards.
func TestSchedulerMonotoneClockProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		last := Time(-1)
		ok := true
		for i, d := range delays {
			_ = i
			s.At(Time(d)*Microsecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeUnits(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatal("unit ladder broken")
	}
	if got := (2500 * Microsecond).Milliseconds(); got != 2.5 {
		t.Fatalf("Milliseconds: got %v", got)
	}
	if got := (3 * Microsecond).Microseconds(); got != 3 {
		t.Fatalf("Microseconds: got %v", got)
	}
	if got := WireTime(2000, 4_000_000); got != 4*Millisecond {
		t.Fatalf("2000 bytes on a 4 Mbit ring should take 4 ms, got %v", got)
	}
	if got := Scale(100*Microsecond, 1.5); got != 150*Microsecond {
		t.Fatalf("Scale: got %v", got)
	}
	if got := PerByte(Microsecond, 2000); got != 2*Millisecond {
		t.Fatalf("PerByte: got %v", got)
	}
}

// TestWheelFirstPassDoesNotAllocate: a fresh scheduler's first walk over
// every one of its 4096 buckets files and fires one event per tick. With
// the buckets threaded through the events themselves, nothing grows on
// that first pass: only the single Event object, which the priming run
// put on the free list, is ever used.
func TestWheelFirstPassDoesNotAllocate(t *testing.T) {
	const runs = 5
	scheds := make([]*Scheduler, runs+1) // AllocsPerRun adds one warm-up call
	for i := range scheds {
		s := NewScheduler()
		s.After(0, func() {}) // one Event onto the free list
		s.Run()
		scheds[i] = s
	}
	next := 0
	tick := Duration(1) << tickShift
	firstPass := func() {
		s := scheds[next]
		next++
		for k := int64(0); k < wheelSize; k++ {
			s.After(tick, func() {})
			s.Run()
		}
		if s.cursor != wheelSize {
			t.Fatalf("pass ended at tick %d, want %d: not every bucket was visited", s.cursor, wheelSize)
		}
	}
	if allocs := testing.AllocsPerRun(runs, firstPass); allocs != 0 {
		t.Fatalf("first pass over the wheel allocated %v times, want 0", allocs)
	}
}

// TestSameInstantFIFODoesNotAllocate: once the FIFO's array and the free
// list are warm, scheduling for the current instant, cancelling one such
// event and firing the rest reuse both, so the zero-delay kicks the
// model schedules per task cost no allocation.
func TestSameInstantFIFODoesNotAllocate(t *testing.T) {
	s := NewScheduler()
	fired := 0
	fn := func() { fired++ }
	round := func() {
		s.After(0, fn)
		s.At(s.Now(), fn).Cancel()
		s.After(0, fn)
		s.RunUntil(s.Now() + 1)
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a same-instant push, cancel and pop allocated %v times, want 0", allocs)
	}
	if fired != 2*102 {
		t.Fatalf("fired %d same-instant events, want %d", fired, 2*102)
	}
	if s.Pending() != 0 || s.fifo.Len() != 0 {
		t.Fatalf("FIFO left %d pending, %d queued", s.Pending(), s.fifo.Len())
	}
}
