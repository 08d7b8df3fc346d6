package sim

import (
	"container/heap"
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
	runUntil(t Time)
	run()
	firedCount() uint64
}

type wheelDriver struct{ s *Scheduler }

func (d wheelDriver) now() Time { return d.s.Now() }
func (d wheelDriver) at(t Time, fn func()) func() {
	e := d.s.At(t, fn)
	return e.Cancel
}
func (d wheelDriver) runUntil(t Time)    { d.s.RunUntil(t) }
func (d wheelDriver) run()               { d.s.Run() }
func (d wheelDriver) firedCount() uint64 { return d.s.Fired() }

type refDriver struct{ s *refScheduler }

func (d refDriver) now() Time { return d.s.now }
func (d refDriver) at(t Time, fn func()) func() {
	e := d.s.at(t, fn)
	return func() { e.cancelled = true }
}
func (d refDriver) runUntil(t Time)    { d.s.runUntil(t) }
func (d refDriver) run()               { d.s.run() }
func (d refDriver) firedCount() uint64 { return d.s.fired }

// fireRec is one observed dispatch: the workload-assigned event id and
// the clock when it ran.
type fireRec struct {
	at Time
	id int
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
}

func newEquivWorkload(d schedDriver, seed int64, budget int) *equivWorkload {
	return &equivWorkload{
		rng:     rand.New(rand.NewSource(seed)),
		d:       d,
		pending: make(map[int]func()),
		budget:  budget,
	}
}

func (w *equivWorkload) randDelay() Time {
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
		w.log = append(w.log, fireRec{at: w.d.now(), id: id})
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
		w.log = append(w.log, fireRec{at: w.d.now(), id: id})
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
		id := w.ids[w.rng.Intn(len(w.ids))]
		if cancel, ok := w.pending[id]; ok {
			delete(w.pending, id)
			cancel()
		}
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
