package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refScheduler is the container/heap event queue the timing wheel
// replaced, kept as an ordering oracle: for any workload the wheel must
// fire the exact same (at, seq) sequence the heap would have. The
// determinism matrix and every experiment golden depend on that.
type refScheduler struct {
	now   Time
	seq   uint64
	evs   refHeap
	fired uint64
}

type refEvent struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (s *refScheduler) at(t Time, fn func()) *refEvent {
	e := &refEvent{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.evs, e)
	return e
}

func (s *refScheduler) step(bound Time) bool {
	for len(s.evs) > 0 {
		e := s.evs[0]
		if e.cancelled {
			heap.Pop(&s.evs)
			continue
		}
		if e.at > bound {
			return false
		}
		heap.Pop(&s.evs)
		s.now = e.at
		s.fired++
		e.fn()
		return true
	}
	return false
}

func (s *refScheduler) runUntil(t Time) {
	for s.step(t) {
	}
	if s.now < t {
		s.now = t
	}
}

func (s *refScheduler) run() {
	for s.step(maxTime) {
	}
}

// schedDriver abstracts the two implementations so one workload script
// drives both. The cancel thunk must be a no-op once the event has fired
// (the workload drops handles at fire time, mirroring the real Event
// ownership rule).
type schedDriver interface {
	now() Time
	at(t Time, fn func()) (cancel func())
	lane(fn func()) laneDriver
	runUntil(t Time)
	run()
	firedCount() uint64
	pending() int
	nextAt() (Time, bool)
}

// laneDriver is a Lane, or on the reference heap the per-boundary events
// a Lane replaces.
type laneDriver interface {
	arm(d Time)
	quiet(d Time) bool
	truncate()
	started() int
	armed() bool
}

type wheelDriver struct{ s *Scheduler }

func (d wheelDriver) now() Time { return d.s.Now() }
func (d wheelDriver) at(t Time, fn func()) func() {
	e := d.s.At(t, fn)
	return e.Cancel
}
func (d wheelDriver) lane(fn func()) laneDriver {
	w := &wheelLane{}
	w.l.Init(d.s, func() {
		w.isArmed = false
		fn()
	})
	return w
}
func (d wheelDriver) runUntil(t Time)      { d.s.RunUntil(t) }
func (d wheelDriver) run()                 { d.s.Run() }
func (d wheelDriver) firedCount() uint64   { return d.s.Fired() }
func (d wheelDriver) pending() int         { return d.s.Pending() }
func (d wheelDriver) nextAt() (Time, bool) { return d.s.NextAt() }

type wheelLane struct {
	l       Lane
	isArmed bool
}

func (w *wheelLane) arm(d Time) {
	w.isArmed = true
	w.l.Arm(d)
}
func (w *wheelLane) quiet(d Time) bool { return w.l.Quiet(d) }
func (w *wheelLane) truncate()         { w.l.Truncate() }
func (w *wheelLane) started() int      { return len(w.l.Started()) }
func (w *wheelLane) armed() bool       { return w.isArmed }

type refDriver struct{ s *refScheduler }

func (d refDriver) now() Time { return d.s.now }
func (d refDriver) at(t Time, fn func()) func() {
	e := d.s.at(t, fn)
	return func() { e.cancelled = true }
}
func (d refDriver) lane(fn func()) laneDriver {
	l := &refLane{s: d.s, fn: fn}
	l.boundary = l.fire
	return l
}
func (d refDriver) runUntil(t Time)    { d.s.runUntil(t) }
func (d refDriver) run()               { d.s.run() }
func (d refDriver) firedCount() uint64 { return d.s.fired }

func (d refDriver) pending() int {
	n := 0
	for _, e := range d.s.evs {
		if !e.cancelled {
			n++
		}
	}
	return n
}

func (d refDriver) nextAt() (Time, bool) {
	var at Time
	ok := false
	for _, e := range d.s.evs {
		if !e.cancelled && (!ok || e.at < at) {
			at, ok = e.at, true
		}
	}
	return at, ok
}

// refLane is a lane as plain events: every boundary, quiet or not, is one
// heap event, and a quiet one schedules the next boundary from its
// callback, taking the seq the Lane takes in its place.
type refLane struct {
	s        *refScheduler
	fn       func()
	boundary func()
	run      []Time
	n, pos   int
	isArmed  bool
}

func (l *refLane) arm(d Time) {
	l.run, l.n, l.pos, l.isArmed = l.run[:0], 0, 0, true
	l.s.at(l.s.now+d, l.boundary)
}

func (l *refLane) quiet(d Time) bool {
	if l.n == laneRun {
		return false
	}
	l.run = append(l.run, d)
	l.n++
	return true
}

func (l *refLane) truncate()    { l.n = l.pos }
func (l *refLane) started() int { return l.pos }
func (l *refLane) armed() bool  { return l.isArmed }

func (l *refLane) fire() {
	if l.pos < l.n {
		l.pos++
		l.s.at(l.s.now+l.run[l.pos-1], l.boundary)
		return
	}
	l.isArmed = false
	l.fn()
}

// fireRec is one observed dispatch: the workload-assigned event id (a
// lane's is negative), the clock when it ran, the scheduler's Fired count
// and, for a lane, how many quiet boundaries its run had fired.
type fireRec struct {
	at      Time
	id      int
	fired   uint64
	started int
}

// equivMix selects the shapes an equivWorkload adds to the base mix.
type equivMix struct {
	zeroHeavy bool // half the delays are zero, and cancels favour the newest events
	lanes     int  // lane owners, each re-arming with a random quiet run
	truncate  bool // callbacks truncate random lanes mid-run
	quantum   Time // when set, delays are multiples of it, so keys tie often
}

// equivWorkload drives a scheduler through a randomized mix of the shapes
// the simulator produces: same-instant ties, sub-tick and in-wheel delays,
// far-future overflow (past the ≈537 ms horizon), cancellations from
// inside callbacks, self-rescheduling repeaters, and bounded runs that
// force the wheel cursor to wrap several times. All randomness comes from
// one seeded source consumed in callback order, so two schedulers that
// fire in the same order see identical scripts.
type equivWorkload struct {
	rng     *rand.Rand
	d       schedDriver
	log     []fireRec
	nextID  int
	ids     []int
	pending map[int]func()
	budget  int
	mix     equivMix
	lanes   []laneDriver
}

func newEquivWorkload(d schedDriver, seed int64, budget int) *equivWorkload {
	return &equivWorkload{
		rng:     rand.New(rand.NewSource(seed)),
		d:       d,
		pending: make(map[int]func()),
		budget:  budget,
	}
}

func (w *equivWorkload) record(id, started int) {
	w.log = append(w.log, fireRec{at: w.d.now(), id: id, fired: w.d.firedCount(), started: started})
}

func (w *equivWorkload) randDelay() Time {
	if w.mix.zeroHeavy && w.rng.Intn(2) == 0 {
		return 0
	}
	if q := w.mix.quantum; q > 0 {
		return Time(w.rng.Intn(40)) * q
	}
	switch w.rng.Intn(6) {
	case 0:
		return 0 // same instant: exercises the (at, seq) FIFO tie
	case 1:
		return Time(w.rng.Intn(int(2 * Microsecond))) // inside one wheel tick
	case 2:
		return Time(w.rng.Intn(int(500 * Microsecond)))
	case 3:
		return Time(w.rng.Intn(int(20 * Millisecond)))
	case 4:
		return Time(w.rng.Intn(int(500 * Millisecond))) // deep in the wheel
	default:
		return Time(w.rng.Intn(int(3 * Second))) // overflow heap territory
	}
}

func (w *equivWorkload) schedule(delay Time) {
	if w.budget <= 0 {
		return
	}
	w.budget--
	id := w.nextID
	w.nextID++
	cancel := w.d.at(w.d.now()+delay, func() {
		w.record(id, 0)
		delete(w.pending, id)
		w.onFire()
	})
	w.ids = append(w.ids, id)
	w.pending[id] = cancel
}

// repeater schedules a self-rescheduling chain of n ticks — the Every
// pattern expressed through the common interface.
func (w *equivWorkload) repeater(period Time, n int) {
	id := w.nextID
	w.nextID++
	ticks := 0
	var tick func()
	tick = func() {
		w.record(id, 0)
		ticks++
		if ticks < n {
			w.d.at(w.d.now()+period, tick)
		}
	}
	w.d.at(w.d.now()+period, tick)
}

func (w *equivWorkload) onFire() {
	for n := w.rng.Intn(3); n > 0; n-- {
		w.schedule(w.randDelay())
	}
	// Cancel a random earlier event; picking by id through the map keeps
	// the choice deterministic (no map iteration) and makes cancels of
	// already-fired events visible no-ops on both implementations.
	if len(w.ids) > 0 && w.rng.Intn(3) == 0 {
		i := w.rng.Intn(len(w.ids))
		if w.mix.zeroHeavy {
			i = len(w.ids) - 1 - w.rng.Intn(min(4, len(w.ids)))
		}
		id := w.ids[i]
		if cancel, ok := w.pending[id]; ok {
			delete(w.pending, id)
			cancel()
		}
	}
	if len(w.lanes) > 0 && w.rng.Intn(4) == 0 {
		l := w.lanes[w.rng.Intn(len(w.lanes))]
		switch {
		case !l.armed():
			w.armLane(l)
		case w.mix.truncate && w.rng.Intn(2) == 0:
			l.truncate()
		}
	}
}

// laneDelay draws a segment-like duration: zero-cost, sub-tick, a chunked
// copy's few hundred µs, or (rarely) far past the wheel's horizon.
func (w *equivWorkload) laneDelay() Time {
	if q := w.mix.quantum; q > 0 {
		return Time(w.rng.Intn(40)) * q
	}
	switch w.rng.Intn(8) {
	case 0, 1:
		return 0
	case 2:
		return Time(w.rng.Intn(int(2 * Microsecond)))
	case 7:
		return Time(w.rng.Intn(int(700 * Millisecond)))
	default:
		return Time(w.rng.Intn(int(400 * Microsecond)))
	}
}

// armLane arms l with a random run of up to laneRun+3 quiet boundaries,
// so some runs overfill the lane.
func (w *equivWorkload) armLane(l laneDriver) {
	if w.budget <= 0 {
		return
	}
	w.budget--
	l.arm(w.laneDelay())
	for n := w.rng.Intn(laneRun + 4); n > 0; n-- {
		l.quiet(w.laneDelay())
	}
}

// addLanes makes the mix's lane owners and arms each. A lane's callback
// records itself, runs the common onFire mix and usually re-arms.
func (w *equivWorkload) addLanes() {
	for i := 0; i < w.mix.lanes; i++ {
		id := -1 - i
		var l laneDriver
		l = w.d.lane(func() {
			w.record(id, l.started())
			w.onFire()
			if !l.armed() && w.rng.Intn(4) != 0 {
				w.armLane(l)
			}
		})
		w.lanes = append(w.lanes, l)
		w.armLane(l)
	}
}

func (w *equivWorkload) drive() {
	// Seed the run: immediate events, far timers, periodic chains.
	for i := 0; i < 20; i++ {
		w.schedule(w.randDelay())
	}
	w.repeater(12*Millisecond, 40)   // a frame-slot-like period
	w.repeater(700*Millisecond, 5)   // re-arms through the overflow heap
	w.repeater(131*Microsecond, 100) // ≈ one wheel tick
	// Bounded runs force cursor wraparounds while events remain queued.
	for _, bound := range []Time{100 * Millisecond, 600 * Millisecond, 2 * Second} {
		w.d.runUntil(bound)
	}
	w.d.run()
}

// equivLogsMatch fails the test at the first difference between the two
// workloads' firing logs or Fired counts.
func equivLogsMatch(t *testing.T, what string, wheel, ref *equivWorkload) {
	t.Helper()
	if got, want := wheel.d.firedCount(), ref.d.firedCount(); got != want {
		t.Fatalf("%s: Fired() diverged: wheel %d, heap %d", what, got, want)
	}
	if got, want := wheel.d.now(), ref.d.now(); got != want {
		t.Fatalf("%s: clocks diverged: wheel %v, heap %v", what, got, want)
	}
	if got, want := wheel.d.pending(), ref.d.pending(); got != want {
		t.Fatalf("%s: Pending() diverged: wheel %d, heap %d", what, got, want)
	}
	gotAt, gotOK := wheel.d.nextAt()
	if wantAt, wantOK := ref.d.nextAt(); gotAt != wantAt || gotOK != wantOK {
		t.Fatalf("%s: NextAt() diverged: wheel %v %t, heap %v %t", what, gotAt, gotOK, wantAt, wantOK)
	}
	for i := range min(len(wheel.log), len(ref.log)) {
		if wheel.log[i] != ref.log[i] {
			t.Fatalf("%s: firing sequence diverged at %d: wheel %+v, heap %+v", what, i, wheel.log[i], ref.log[i])
		}
	}
	if len(wheel.log) != len(ref.log) {
		t.Fatalf("%s: fire counts diverged: wheel %d, heap %d", what, len(wheel.log), len(ref.log))
	}
}

// TestSchedulerMatchesHeapOrder runs the scheduler's three sources — the
// wheel, the same-instant FIFO and the lanes — against the reference heap
// on mixes that stress each: zero-delay events with cancels in the FIFO,
// lane owners with quiet runs, runs truncated mid-way, and RunUntil
// bounds that fall inside runs. The two must agree on every callback's
// time and Fired count after every RunUntil, not only at the end.
func TestSchedulerMatchesHeapOrder(t *testing.T) {
	fine := make([]Time, 0, 600)
	for b := Time(0); b < 1500*Millisecond; b += 2*Millisecond + 500*Microsecond + 7 {
		fine = append(fine, b)
	}
	for _, tc := range []struct {
		name   string
		mix    equivMix
		bounds []Time
	}{
		{"zero-delay-fifo-cancels", equivMix{zeroHeavy: true}, []Time{50 * Millisecond, 700 * Millisecond}},
		{"lanes-quiet-runs", equivMix{lanes: 4}, []Time{100 * Millisecond, 600 * Millisecond}},
		{"lanes-quiet-runs-ties", equivMix{lanes: 6, zeroHeavy: true, quantum: 50 * Microsecond}, []Time{30 * Millisecond}},
		{"lanes-truncated", equivMix{lanes: 5, truncate: true, zeroHeavy: true}, []Time{200 * Millisecond}},
		{"lanes-truncated-ties", equivMix{lanes: 3, truncate: true, quantum: 10 * Microsecond}, []Time{10 * Millisecond}},
		{"bounds-inside-runs", equivMix{lanes: 4, truncate: true}, fine},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				wheel := newEquivWorkload(wheelDriver{NewScheduler()}, seed, 3000)
				ref := newEquivWorkload(refDriver{&refScheduler{}}, seed, 3000)
				for _, w := range []*equivWorkload{wheel, ref} {
					w.mix = tc.mix
					for i := 0; i < 20; i++ {
						w.schedule(w.randDelay())
					}
					w.repeater(12*Millisecond, 40)
					w.repeater(131*Microsecond, 100)
					w.addLanes()
				}
				for _, b := range tc.bounds {
					wheel.d.runUntil(b)
					ref.d.runUntil(b)
					equivLogsMatch(t, fmt.Sprintf("seed %d, RunUntil(%v)", seed, b), wheel, ref)
				}
				wheel.d.run()
				ref.d.run()
				equivLogsMatch(t, fmt.Sprintf("seed %d, Run", seed), wheel, ref)
				if len(wheel.log) < 100 {
					t.Fatalf("seed %d: workload fired only %d callbacks", seed, len(wheel.log))
				}
			}
		})
	}
}

func TestWheelMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		wheel := newEquivWorkload(wheelDriver{NewScheduler()}, seed, 3000)
		wheel.drive()
		ref := newEquivWorkload(refDriver{&refScheduler{}}, seed, 3000)
		ref.drive()

		if len(wheel.log) == 0 {
			t.Fatalf("seed %d: workload fired nothing", seed)
		}
		if got, want := wheel.d.firedCount(), ref.d.firedCount(); got != want {
			t.Fatalf("seed %d: Fired() diverged: wheel %d, heap %d", seed, got, want)
		}
		if len(wheel.log) != len(ref.log) {
			t.Fatalf("seed %d: fire counts diverged: wheel %d, heap %d", seed, len(wheel.log), len(ref.log))
		}
		for i := range wheel.log {
			if wheel.log[i] != ref.log[i] {
				t.Fatalf("seed %d: firing sequence diverged at %d: wheel %+v, heap %+v",
					seed, i, wheel.log[i], ref.log[i])
			}
		}
	}
}

// The wheel must stay consistent when every event sits beyond the horizon
// (pure overflow workload) and when everything lands in one bucket.
func TestWheelEdgeDistributions(t *testing.T) {
	t.Run("all-overflow", func(t *testing.T) {
		s := NewScheduler()
		var got []Time
		for i := 20; i >= 1; i-- {
			at := Time(i) * Second
			s.At(at, func() { got = append(got, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("overflow events out of order: %v", got)
			}
		}
		if len(got) != 20 {
			t.Fatalf("want 20 fires, got %d", len(got))
		}
	})
	t.Run("one-bucket", func(t *testing.T) {
		s := NewScheduler()
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			// All inside one tick: distinct at, FIFO-tied pairs included.
			s.At(Time(i/2), func() { order = append(order, i) })
		}
		s.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("in-bucket order wrong: %v", order)
			}
		}
	})
}

// firstBucket must find the earliest bucket when its index lies below the
// cursor's: in the next revolution of the wheel, and — the longest scan —
// a bucket just behind the cursor, reached only after probing nearly the
// whole wheel.
func TestWheelFirstBucketWraps(t *testing.T) {
	tick := Time(1) << tickShift
	for _, tc := range []struct {
		name   string
		cursor int64   // tick the cursor is advanced to
		events []int64 // ticks of the pending events, in firing order
	}{
		{"next-revolution", wheelSize - 8, []int64{wheelSize - 1, wheelSize + 4}},
		{"behind-cursor", wheelSize + 10, []int64{2*wheelSize + 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			s.At(Time(tc.cursor)*tick, func() {})
			s.Run()
			if s.cursor != tc.cursor {
				t.Fatalf("cursor at tick %d, want %d", s.cursor, tc.cursor)
			}
			var fired []Time
			for i := len(tc.events) - 1; i >= 0; i-- {
				s.At(Time(tc.events[i])*tick+3, func() { fired = append(fired, s.Now()) })
			}
			if head, got := s.firstBucket(); got != tc.events[0] || head.at != Time(tc.events[0])*tick+3 {
				t.Fatalf("firstBucket reports tick %d (event at %v), want tick %d", got, head.at, tc.events[0])
			}
			if at, ok := s.NextAt(); !ok || at != Time(tc.events[0])*tick+3 {
				t.Fatalf("NextAt = %v, %t", at, ok)
			}
			s.Run()
			if len(fired) != len(tc.events) {
				t.Fatalf("fired %d events, want %d", len(fired), len(tc.events))
			}
			for i, at := range fired {
				if want := Time(tc.events[i])*tick + 3; at != want {
					t.Fatalf("event %d fired at %v, want %v", i, at, want)
				}
			}
		})
	}
}
