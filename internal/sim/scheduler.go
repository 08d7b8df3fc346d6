package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is a scheduled callback. The zero value is not useful; events are
// created through Scheduler.At and Scheduler.After and may be cancelled
// before they fire.
//
// Ownership: an Event pointer is valid from the moment it is scheduled
// until the event fires or is cancelled. After that the scheduler recycles
// the object through a free list, so a retained pointer may later refer to
// a different, unrelated event. Cancel a pending event as many times as
// you like; do not keep the pointer around once the event has run.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	home      int32      // wheel bucket index, or homeOverflow / homeNone
	index     int32      // position within the bucket slice or overflow heap
	s         *Scheduler // owner, for eager removal and recycling
}

const (
	// homeNone marks an event that is not queued: popped, cancelled, or
	// fresh off the free list.
	homeNone int32 = -1
	// homeOverflow marks an event parked in the far-future overflow heap.
	homeOverflow int32 = -2
)

// When reports the simulated time at which the event is due to fire.
func (e *Event) When() Time { return e.at }

// Cancel prevents the event from firing and removes it from its queue
// immediately, so long runs that schedule and cancel many timers do not
// grow the wheel or the overflow heap. Cancelling an event that has
// already fired or was already cancelled is a no-op.
func (e *Event) Cancel() {
	if e.cancelled || e.home == homeNone {
		return
	}
	e.cancelled = true
	if e.s != nil {
		e.s.remove(e)
		e.s.recycle(e)
	}
}

// Cancelled reports whether Cancel has been called on the event.
func (e *Event) Cancelled() bool { return e.cancelled }

// eventHeap is the overflow queue for events beyond the wheel horizon,
// ordered by (at, seq) exactly as the wheel fires.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}

//ctmsvet:hotpath
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.home = homeOverflow
	e.index = int32(len(*h))
	*h = append(*h, e) //ctmsvet:allow hotpath heap grows to steady-state depth once, then reuses its backing array
}

//ctmsvet:hotpath
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.home = homeNone
	*h = old[:n-1]
	return e
}

// Timing-wheel geometry. The wheel covers the near future in fixed-width
// ticks: events within wheelSize ticks of the cursor sit in their tick's
// bucket (O(1) schedule and cancel); everything farther out waits in the
// overflow heap and cascades into the wheel as the cursor advances. The
// dominant events — frame slots, playout ticks, kernel housekeeping,
// repeater arms — are all well inside the horizon.
const (
	// tickShift sets the bucket width: 2^17 ns ≈ 131 µs, fine enough that
	// microsecond-scale bursts spread across buckets (keeping the in-bucket
	// min scan short) and coarse enough that a 12 ms period spans only ~92
	// empty-bucket probes.
	tickShift = 17
	// wheelBits sets the bucket count: 2^12 = 4096 buckets ≈ 537 ms of
	// horizon, comfortably past the 250 ms purge-penalty window and the
	// 400 ms housekeeping interarrivals.
	wheelBits = 12
	wheelSize = int64(1) << wheelBits
	wheelMask = wheelSize - 1
)

// maxTime is the bound Run uses: dispatch everything.
const maxTime = Time(math.MaxInt64)

// Scheduler is the discrete-event engine. It owns the simulated clock and
// a hierarchical timing wheel of pending events (near-future buckets plus
// a far-future overflow heap). Events scheduled for the same instant fire
// in the order they were scheduled, which keeps runs deterministic; the
// (at, seq) order is bit-identical to the binary heap this replaced.
//
//ctmsvet:shardowned
type Scheduler struct {
	now      Time
	seq      uint64
	cursor   int64      // wheel tick of the last dispatched event
	wheel    [][]*Event // wheelSize buckets; tick t lives at wheel[t&wheelMask]
	inWheel  int        // events currently in wheel buckets
	overflow eventHeap  // events at or past cursor+wheelSize ticks
	free     []*Event   // recycled Event objects, reused by At/After
	stopped  bool
	fired    uint64
	trace    *Trace

	// metrics flush watermarks and deferral flag (see total.go)
	flushedNow   Time
	flushedFired uint64
	deferFlush   bool
}

// maxFreeEvents caps the free list so a transient burst of timers does not
// pin memory for the rest of the run.
const maxFreeEvents = 1024

// alloc reuses a recycled Event when one is available. The simulation's
// steady state (handlers that fire and re-arm) runs entirely off the free
// list, so the inner event loop stops allocating per event.
//
//ctmsvet:hotpath
func (s *Scheduler) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.cancelled = false
		return e
	}
	return &Event{s: s, home: homeNone} //ctmsvet:allow hotpath cold refill path, runs only until the free list reaches steady state
}

// recycle returns a popped or cancelled event to the free list, dropping
// its closure so it can be collected.
//
//ctmsvet:hotpath
func (s *Scheduler) recycle(e *Event) {
	e.fn = nil
	e.home = homeNone
	if len(s.free) < maxFreeEvents {
		s.free = append(s.free, e) //ctmsvet:allow hotpath free list capacity is preallocated at maxFreeEvents and the len guard keeps it there
	}
}

// NewScheduler returns a scheduler with the clock at zero. The event free
// list is preallocated to its cap so recycle never grows it, and the
// wheel's bucket table is allocated up front (bucket slices themselves
// grow to steady-state occupancy on first use).
func NewScheduler() *Scheduler {
	return &Scheduler{
		wheel: make([][]*Event, wheelSize),
		free:  make([]*Event, 0, maxFreeEvents),
	}
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired reports how many events have been dispatched so far; useful for
// tests and for sanity checks on run size.
func (s *Scheduler) Fired() uint64 { return s.fired }

// SetTrace attaches the structured trace that model components record
// their domain events into (through Trace). The scheduler itself records
// nothing. A nil trace disables tracing.
func (s *Scheduler) SetTrace(t *Trace) { s.trace = t }

// Trace reports the attached trace log, or nil. Model components reach
// their run's trace through this — sim.Trace methods are nil-receiver
// safe, so call sites need no guard.
func (s *Scheduler) Trace() *Trace { return s.trace }

// enqueue places a scheduled event into its tick's wheel bucket, or into
// the overflow heap when the tick is past the wheel horizon. The caller
// guarantees e.at >= s.now, and the cursor never passes the clock's tick,
// so the event's tick is always at or ahead of the cursor.
//
//ctmsvet:hotpath
func (s *Scheduler) enqueue(e *Event) {
	tk := int64(e.at) >> tickShift
	if tk < s.cursor {
		Checkf(false, "event at %v maps to tick %d behind the wheel cursor %d", e.at, tk, s.cursor)
	}
	if tk >= s.cursor+wheelSize {
		heap.Push(&s.overflow, e)
		return
	}
	s.bucketPut(e, int(tk&wheelMask))
}

// bucketPut appends an event to a wheel bucket.
//
//ctmsvet:hotpath
func (s *Scheduler) bucketPut(e *Event, b int) {
	bs := s.wheel[b]
	e.home = int32(b)
	e.index = int32(len(bs))
	s.wheel[b] = append(bs, e) //ctmsvet:allow hotpath bucket slices grow to steady-state occupancy once, then reuse their backing arrays
	s.inWheel++
}

// remove takes a pending event out of whichever queue holds it: O(1)
// swap-delete from its wheel bucket, or heap removal from the overflow.
//
//ctmsvet:hotpath
func (s *Scheduler) remove(e *Event) {
	if e.home == homeOverflow {
		heap.Remove(&s.overflow, int(e.index))
		return
	}
	bs := s.wheel[e.home]
	last := len(bs) - 1
	i := int(e.index)
	bs[i] = bs[last]
	bs[i].index = int32(i)
	bs[last] = nil
	s.wheel[e.home] = bs[:last]
	e.home = homeNone
	s.inWheel--
}

// advanceTo commits the cursor to tick and cascades: overflow events whose
// ticks fall inside the new horizon move into their wheel buckets. Each
// overflow event cascades at most once, so the cost is amortized O(log n)
// per far-future event, paid only when its horizon opens.
//
//ctmsvet:hotpath
func (s *Scheduler) advanceTo(tick int64) {
	if tick > s.cursor {
		s.cursor = tick
	}
	for len(s.overflow) > 0 && int64(s.overflow[0].at)>>tickShift < s.cursor+wheelSize {
		e := heap.Pop(&s.overflow).(*Event)
		s.bucketPut(e, int((int64(e.at)>>tickShift)&wheelMask))
	}
}

// firstBucket scans forward from the cursor for the first occupied bucket
// and reports it with its tick. Within the wheel's horizon every tick maps
// to a distinct bucket, so scanning bucket indices in cursor order visits
// ticks in increasing order; the scan is read-only (the cursor commits
// only when an event actually fires, so an aborted bounded step leaves no
// trace). The caller guarantees the wheel is non-empty.
//
//ctmsvet:hotpath
func (s *Scheduler) firstBucket() ([]*Event, int64) {
	for k := int64(0); k < wheelSize; k++ {
		tick := s.cursor + k
		if bs := s.wheel[tick&wheelMask]; len(bs) > 0 {
			return bs, tick
		}
	}
	Checkf(false, "wheel accounting broken: inWheel > 0 but no bucket is occupied")
	return nil, 0
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past is an invariant violation: the model must never depend on
// re-ordering history. The guards are written condition-first so the
// passing case never boxes the Checkf arguments into its variadic any
// slice — At runs once per event, and those boxes were a measurable
// slice of the event loop's allocations.
//
//ctmsvet:hotpath
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		Checkf(false, "event scheduled at %v, before now %v", t, s.now)
	}
	if fn == nil {
		Checkf(false, "event at %v scheduled with nil callback", t)
	}
	e := s.alloc()
	e.at, e.seq, e.fn = t, s.seq, fn
	s.seq++
	s.enqueue(e)
	return e
}

// After schedules fn to run d after the current simulated time.
//
//ctmsvet:hotpath
func (s *Scheduler) After(d Duration, fn func()) *Event {
	if d < 0 {
		Checkf(false, "event scheduled with negative delay %v", d)
	}
	return s.At(s.now+d, fn)
}

// Every schedules fn to run every period, starting after the first period,
// until the returned Repeater is stopped or the run ends.
func (s *Scheduler) Every(period Duration, fn func()) *Repeater {
	Checkf(period > 0, "repeater needs a positive period, got %v", period)
	r := &Repeater{s: s, period: period, fn: fn}
	// The tick closure is built once here, not per arm: re-arming is a
	// per-tick hot path and a fresh closure every period is an
	// allocation the free list cannot absorb.
	r.tick = func() {
		if r.stopped {
			return
		}
		r.arm()
		r.fn()
	}
	r.arm()
	return r
}

// Repeater re-schedules a callback at a fixed period. The period is exact:
// ticks do not drift even if the callback itself takes simulated actions.
type Repeater struct {
	s       *Scheduler
	period  Duration
	fn      func()
	tick    func() // wraps fn; built once in Every, reused every arm
	next    *Event
	stopped bool
}

//ctmsvet:hotpath
func (r *Repeater) arm() {
	r.next = r.s.After(r.period, r.tick)
}

// Stop halts future firings. The callback will not run again.
func (r *Repeater) Stop() {
	r.stopped = true
	if r.next != nil {
		r.next.Cancel()
	}
}

// Stop halts the run loop after the currently dispatching event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Pending reports the number of live (non-cancelled) events queued.
// Cancelled events leave their bucket or the overflow heap eagerly, so
// this is just two counters — O(1), safe to poll from hot paths.
func (s *Scheduler) Pending() int { return s.inWheel + len(s.overflow) }

// NextAt reports the timestamp of the earliest pending event without
// dispatching it, or ok=false when the queue is empty. Wheel events always
// precede overflow events (step's ordering argument), so the earliest
// occupied bucket's min — or failing that the overflow root — is the
// queue-wide minimum. The conservative-window engine uses this to decide
// whether a lookahead window holds any work at all before paying for a
// barrier round.
func (s *Scheduler) NextAt() (Time, bool) {
	if s.inWheel > 0 {
		bs, _ := s.firstBucket()
		at := bs[0].at
		for _, c := range bs[1:] {
			if c.at < at {
				at = c.at
			}
		}
		return at, true
	}
	if len(s.overflow) > 0 {
		return s.overflow[0].at, true
	}
	return 0, false
}

// step dispatches the earliest pending event if it is due at or before
// bound. It reports false when the queue is empty or the next event lies
// beyond the bound. Neither queue ever holds cancelled events (Cancel
// removes them eagerly), so whatever the scan finds is live.
//
// Order: wheel events occupy ticks in [cursor, cursor+wheelSize) and
// overflow events sit at or past cursor+wheelSize, so when the wheel is
// non-empty its earliest bucket strictly precedes every overflow event;
// within a bucket the linear min-scan picks the lowest (at, seq) — the
// exact order the binary heap produced.
//
//ctmsvet:hotpath
func (s *Scheduler) step(bound Time) bool {
	var e *Event
	if s.inWheel > 0 {
		bs, tick := s.firstBucket()
		e = bs[0]
		for _, c := range bs[1:] {
			if c.at < e.at || (c.at == e.at && c.seq < e.seq) {
				e = c
			}
		}
		if e.at > bound {
			return false
		}
		s.remove(e)
		s.advanceTo(tick)
	} else {
		if len(s.overflow) == 0 || s.overflow[0].at > bound {
			return false
		}
		e = heap.Pop(&s.overflow).(*Event)
		s.advanceTo(int64(e.at) >> tickShift)
	}
	if e.at < s.now {
		Checkf(false, "time went backwards: event at %v, now %v", e.at, s.now)
	}
	s.now = e.at
	s.fired++
	fn := e.fn
	s.recycle(e)
	fn()
	return true
}

// Run dispatches events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.step(maxTime) {
	}
	s.flushMetrics()
}

// RunUntil dispatches events with timestamps up to and including t, then
// advances the clock to exactly t. Events scheduled after t remain queued.
func (s *Scheduler) RunUntil(t Time) {
	Checkf(t >= s.now, "RunUntil(%v) is before now %v", t, s.now)
	s.stopped = false
	for !s.stopped && s.step(t) {
	}
	if s.now < t {
		s.now = t
	}
	s.flushMetrics()
}

// String summarizes the scheduler state for debugging.
func (s *Scheduler) String() string {
	return fmt.Sprintf("sim.Scheduler{now: %v, pending: %d, fired: %d}", s.now, s.Pending(), s.fired)
}
