package sim

import (
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
	key       // (at, seq), and the position within the overflow heap
	fn        func()
	cancelled bool
	home      int32      // wheel bucket index, or homeOverflow / homeFIFO / homeNone
	s         *Scheduler // owner, for eager removal and recycling
	// next and prev link the event into its wheel bucket's intrusive
	// list, so filing an event into a bucket never allocates.
	next, prev *Event
}

const (
	// homeNone marks an event that is not queued: popped, cancelled, or
	// fresh off the free list.
	homeNone int32 = -1
	// homeOverflow marks an event parked in the far-future overflow heap.
	homeOverflow int32 = -2
	// homeFIFO marks an event in the same-instant FIFO.
	homeFIFO int32 = -3
)

// When reports the simulated time at which the event is due to fire.
func (e *Event) When() Time { return e.at }

// Cancel prevents the event from firing and removes it from its queue
// immediately, so long runs that schedule and cancel many timers do not
// grow the wheel or the overflow heap; a same-instant event stays in its
// FIFO, which drops it when it reaches the head. Cancelling an event that
// has already fired or was already cancelled is a no-op.
func (e *Event) Cancel() {
	if e.cancelled || e.home == homeNone {
		return
	}
	e.cancelled = true
	if e.home == homeFIFO {
		e.s.fifoLive--
		return
	}
	e.s.remove(e)
	e.s.recycle(e)
}

// Cancelled reports whether Cancel has been called on the event.
func (e *Event) Cancelled() bool { return e.cancelled }

// Timing-wheel geometry. The wheel covers the near future in fixed-width
// ticks: events within wheelSize ticks of the cursor sit in their tick's
// bucket (O(1) schedule and cancel); everything farther out waits in the
// overflow heap and cascades into the wheel as the cursor advances. Each
// bucket is an intrusive doubly-linked list threaded through the events
// themselves, so filing, cancelling and firing never touch a slice. The
// dominant events — frame slots, playout ticks, kernel housekeeping,
// repeater arms — are all well inside the horizon.
const (
	// tickShift sets the bucket width: 2^17 ns ≈ 131 µs, fine enough that
	// microsecond-scale bursts spread across buckets (keeping the in-bucket
	// min scan short). A 12 ms period spans ~92 buckets, but on the
	// modelled machines other events fill the gaps: a step crosses fewer
	// than one empty bucket on average (DESIGN §8), so firstBucket's
	// bucket-by-bucket probe stays short.
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
// three sources of pending work: a hierarchical timing wheel of events
// (near-future buckets plus a far-future overflow heap), a FIFO of events
// scheduled for the current instant, and a heap of armed lanes (see
// Lane). Every pending item carries an (at, seq) key, and step fires the
// smallest of the three sources' minima, so events scheduled for the same
// instant fire in the order they were scheduled, which keeps runs
// deterministic; the (at, seq) order is bit-identical to the binary heap
// this replaced.
//
//ctmsvet:shardowned
type Scheduler struct {
	now      Time
	seq      uint64
	cursor   int64             // wheel tick of the last dispatched wheel event
	wheel    []*Event          // wheelSize bucket list heads; tick t lives at wheel[t&wheelMask]
	inWheel  int               // events currently in wheel buckets
	wmin     *Event            // the wheel's (at, seq) minimum, or nil when not known
	overflow timedHeap[*Event] // events at or past cursor+wheelSize ticks
	fifo     FIFO[*Event]      // events scheduled for the instant they were scheduled at
	fifoLive int               // fifo entries not cancelled
	lanes    timedHeap[*Lane]  // armed lanes
	free     []*Event          // recycled Event objects, reused by At/After
	stopped  bool
	fired    uint64
	quiet    uint64 // lane boundaries fired without a callback
	trace    *Trace

	// The FIFO's and the lane heap's first backing arrays, inside the
	// scheduler: the few events the model queues for one instant
	// (dispatch kicks, zero-cost completions) and one lane per CPU on a
	// scheduler fit, so neither allocates as the run starts, on each of a
	// mesh's many shard schedulers. A larger load grows onto the heap.
	fifoArr [16]*Event
	laneArr [16]heapSlot[*Lane]

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
func (s *Scheduler) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.cancelled = false
		return e
	}
	return &Event{s: s, home: homeNone}
}

// recycle returns a popped or cancelled event to the free list, dropping
// its closure so it can be collected.
func (s *Scheduler) recycle(e *Event) {
	e.fn = nil
	e.home = homeNone
	if len(s.free) < maxFreeEvents {
		s.free = append(s.free, e) // capacity is preallocated at maxFreeEvents; the len guard keeps it there
	}
}

// NewScheduler returns a scheduler with the clock at zero. The event free
// list is preallocated to its cap so recycle never grows it, and the
// wheel's bucket table is allocated up front; buckets are lists threaded
// through the events, so they need no storage of their own.
func NewScheduler() *Scheduler {
	s := &Scheduler{
		wheel: make([]*Event, wheelSize),
		free:  make([]*Event, 0, maxFreeEvents),
	}
	s.fifo.items = s.fifoArr[:0]
	s.lanes = s.laneArr[:0]
	return s
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired reports how many events have been dispatched so far; useful for
// tests and for sanity checks on run size. Quiet lane boundaries count:
// each stands for the event it replaced.
func (s *Scheduler) Fired() uint64 { return s.fired }

// QuietFired reports how many of the Fired events were quiet lane
// boundaries, fired in place without a callback.
func (s *Scheduler) QuietFired() uint64 { return s.quiet }

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
func (s *Scheduler) enqueue(e *Event) {
	tk := int64(e.at) >> tickShift
	if tk < s.cursor {
		Checkf(false, "event at %v maps to tick %d behind the wheel cursor %d", e.at, tk, s.cursor)
	}
	if tk >= s.cursor+wheelSize {
		e.home = homeOverflow
		s.overflow.push(e, &e.key)
		return
	}
	s.bucketPut(e, int(tk&wheelMask))
}

// bucketPut links an event in at the head of a wheel bucket's list.
// Order within a bucket is irrelevant: wheelMin picks the (at, seq)
// minimum by a full scan, and a put keeps its cached result current.
func (s *Scheduler) bucketPut(e *Event, b int) {
	if s.inWheel == 0 || s.wmin != nil && e.before(&s.wmin.key) {
		s.wmin = e
	}
	head := s.wheel[b]
	e.home = int32(b)
	e.prev, e.next = nil, head
	if head != nil {
		head.prev = e
	}
	s.wheel[b] = e
	s.inWheel++
}

// remove takes a pending event out of whichever queue holds it: an O(1)
// unlink from its wheel bucket's list, or heap removal from the overflow.
func (s *Scheduler) remove(e *Event) {
	if e.home == homeOverflow {
		s.overflow.remove(int(e.index))
		e.home = homeNone
		return
	}
	if e == s.wmin {
		s.wmin = nil
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.wheel[e.home] = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.next, e.prev = nil, nil
	e.home = homeNone
	s.inWheel--
}

// advanceTo commits the cursor to tick and cascades: overflow events whose
// ticks fall inside the new horizon move into their wheel buckets. Each
// overflow event cascades at most once, so the cost is amortized O(log n)
// per far-future event, paid only when its horizon opens.
func (s *Scheduler) advanceTo(tick int64) {
	if tick <= s.cursor {
		return // same horizon: everything in the overflow is still beyond it
	}
	s.cursor = tick
	for len(s.overflow) > 0 && int64(s.overflow[0].k.at)>>tickShift < s.cursor+wheelSize {
		e := s.overflow.pop()
		s.bucketPut(e, int((int64(e.at)>>tickShift)&wheelMask))
	}
}

// firstBucket scans forward from the cursor for the first occupied bucket
// and reports its list head with its tick. Within the wheel's horizon every tick maps
// to a distinct bucket, so scanning bucket indices in cursor order visits
// ticks in increasing order; the scan is read-only (the cursor commits
// only when an event actually fires, so an aborted bounded step leaves no
// trace). The caller guarantees the wheel is non-empty.
func (s *Scheduler) firstBucket() (*Event, int64) {
	for k := int64(0); k < wheelSize; k++ {
		tick := s.cursor + k
		if head := s.wheel[tick&wheelMask]; head != nil {
			return head, tick
		}
	}
	Checkf(false, "wheel accounting broken: inWheel > 0 but no bucket is occupied")
	return nil, 0
}

// wheelMin finds the wheel's (at, seq) minimum, the first occupied
// bucket's, by a full scan of that bucket, and caches it in wmin until it
// leaves the wheel or a put files an earlier event. The wheel must not be
// empty.
func (s *Scheduler) wheelMin() *Event {
	e, _ := s.firstBucket()
	for c := e.next; c != nil; c = c.next {
		if c.before(&e.key) {
			e = c
		}
	}
	s.wmin = e
	return e
}

// fifoHead reports the same-instant FIFO's first live event, dropping the
// cancelled ones ahead of it, or nil when none is queued.
func (s *Scheduler) fifoHead() *Event {
	for s.fifo.Len() > 0 {
		e := s.fifo.items[s.fifo.head]
		if !e.cancelled {
			return e
		}
		s.fifo.Pop()
		s.recycle(e)
	}
	return nil
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past is an invariant violation: the model must never depend on
// re-ordering history. The guards are written condition-first so the
// passing case never boxes the Checkf arguments into its variadic any
// slice — At runs once per event, and those boxes were a measurable
// slice of the event loop's allocations.
//
// An event for the current instant goes to the same-instant FIFO instead
// of the wheel. That is exact: its seq is the largest yet, so it fires
// after everything already pending at now and before anything scheduled
// later, which is FIFO order.
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
	if t == s.now {
		e.home = homeFIFO
		s.fifo.Push(e)
		s.fifoLive++
		return e
	}
	s.enqueue(e)
	return e
}

// After schedules fn to run d after the current simulated time.
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

// Pending reports the number of live (non-cancelled) events queued, an
// armed lane counting as one. Cancelled events leave their bucket or the
// overflow heap eagerly and the FIFO keeps a live count, so this is a sum
// of counters — O(1), safe to poll from hot paths.
func (s *Scheduler) Pending() int {
	return s.inWheel + len(s.overflow) + s.fifoLive + len(s.lanes)
}

// next reports the earliest pending event, lanes aside: the smaller
// (at, seq) of the timed events' minimum and the same-instant FIFO's
// head, or nil when neither holds one; and the lane at the lane heap's
// root when that fires before it, else nil. Wheel events occupy ticks in
// [cursor, cursor+wheelSize) and overflow events sit at or past
// cursor+wheelSize, so when the wheel is non-empty its minimum strictly
// precedes every overflow event.
func (s *Scheduler) next() (e *Event, l *Lane) {
	e = s.wmin
	if e == nil {
		if s.inWheel > 0 {
			e = s.wheelMin()
		} else if len(s.overflow) > 0 {
			e = s.overflow[0].v
		}
	}
	if s.fifo.Len() > 0 {
		if f := s.fifoHead(); f != nil && (e == nil || f.before(&e.key)) {
			e = f
		}
	}
	if len(s.lanes) > 0 && (e == nil || s.lanes[0].v.before(&e.key)) {
		l = s.lanes[0].v
	}
	return e, l
}

// NextAt reports the timestamp of the earliest pending event without
// dispatching it, or ok=false when the queue is empty. The
// conservative-window engine uses this to decide whether a lookahead
// window holds any work at all before paying for a barrier round.
func (s *Scheduler) NextAt() (Time, bool) {
	switch e, l := s.next(); {
	case l != nil:
		return l.at, true
	case e != nil:
		return e.at, true
	}
	return 0, false
}

// step dispatches the earliest pending item if it is due at or before
// bound: the smallest (at, seq) among the timed events' minimum, the
// same-instant FIFO's head and the lane heap's root. It reports false
// when nothing is pending or the next item lies beyond the bound. No
// queue yields a cancelled event: the wheel and the overflow drop them
// eagerly and fifoHead skips them.
func (s *Scheduler) step(bound Time) bool {
	e, l := s.next()
	if l != nil {
		if l.at > bound {
			return false
		}
		s.fireLane(l, e, bound)
		return true
	}
	if e == nil || e.at > bound {
		return false
	}
	if e.home == homeFIFO {
		s.fifo.Pop()
		s.fifoLive--
	} else {
		s.remove(e)
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
// The sharded engine calls it once per shard per window, so its guard is
// condition-first like At's.
func (s *Scheduler) RunUntil(t Time) {
	if t < s.now {
		Checkf(false, "RunUntil(%v) is before now %v", t, s.now)
	}
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
