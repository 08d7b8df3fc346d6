package rtpc

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// NumLevels is the number of interrupt priority levels. Level 0 is base
// (user and ordinary kernel) level; higher levels preempt lower ones at
// segment boundaries.
const NumLevels = 8

// The CPU's ready mask keeps one bit per level in a uint8; this fails to
// compile (negative array length) if NumLevels ever outgrows it.
var _ [8 - NumLevels]struct{}

// Seg is one uninterruptible stretch of code: the CPU cannot be preempted
// inside a segment, only between segments. The longest segment in the
// system therefore bounds worst-case interrupt dispatch latency — exactly
// the paper's "execution of protected code segments" jitter source.
//
// Fn runs when the segment's cost has elapsed. An action that must make a
// data-dependent decision about what runs next inserts further segments
// with CPU.Splice.
type Seg struct {
	Cost sim.Time
	Fn   func()
}

// Do builds a segment with just a cost.
func Do(cost sim.Time) Seg { return Seg{Cost: cost} }

// Then builds a segment with a cost and a completion action.
func Then(cost sim.Time, fn func()) Seg { return Seg{Cost: cost, Fn: fn} }

// Mark builds a zero-cost probe segment; fn observes the instant between
// two segments (used for the paper's measurement points).
func Mark(fn func()) Seg { return Seg{Fn: fn} }

// Task is a unit of schedulable work at an interrupt level. Tasks are
// recycled through a per-CPU free list: the pointer is owned by the CPU
// from Submit until the last segment completes, and callers never see it.
// segs is the task's own copy of its program; its backing array survives
// recycling, so a warm task holds any program without allocating.
type task struct {
	level     int
	segs      []Seg
	next      int // index of the next segment to run; segs is never re-sliced
	onDone    func()
	submitted sim.Time
	started   bool
}

// CPUStats aggregates CPU-level accounting.
type CPUStats struct {
	TasksRun        uint64
	SegsRun         uint64
	BusyTime        sim.Time
	MaxDispatchWait [NumLevels]sim.Time
	Preemptions     uint64
}

// CPU dispatches tasks at interrupt levels with segment-boundary
// preemption. It is strictly single-threaded (it models one processor).
type CPU struct {
	sched   *sim.Scheduler
	name    string
	pending [NumLevels]sim.FIFO[*task]
	ready   uint8   // bit l set ⇔ pending[l] is non-empty
	stack   []*task // running task stack; top is executing
	inSeg   bool    // a segment is currently burning cycles
	mask    int     // spl: tasks at level ≤ mask cannot start
	kick    bool    // a dispatch kick event is queued

	// Dispatch runs once per task and segment ends run once per segment —
	// the busiest paths in the whole simulator — so their callbacks are
	// built once here, not per event.
	kickFn  func()
	segEnd  func()  // shared end-of-segment callback
	segTask *task   // task whose segment is in flight (inSeg)
	acting  *task   // task whose segment action is running; Splice's target
	free    []*task // recycled task objects

	// lane holds the in-flight segment's end and the quiet boundaries
	// after it (see runSeg); booked counts the lane's Started entries
	// already booked into stats and segTask.next.
	lane   sim.Lane
	booked int

	sysDMAActive int // DMA engines currently targeting system memory

	stats CPUStats
}

// maxFreeTasks caps the task free list; the steady state needs only as
// many tasks as can be simultaneously pending plus stacked.
const maxFreeTasks = 256

// NewCPU creates a CPU driven by sched. Each active system-memory DMA
// slows segment execution by DMASysInterference.
func NewCPU(sched *sim.Scheduler, name string) *CPU {
	c := &CPU{
		sched: sched,
		name:  name,
		mask:  -1,
		free:  make([]*task, 0, maxFreeTasks),
	}
	c.kickFn = func() {
		c.kick = false
		c.dispatch()
	}
	// One segment is in flight at a time (inSeg gates dispatch and
	// preemption happens only at segment boundaries), so a single shared
	// callback reading segTask replaces a fresh closure per segment.
	c.segEnd = func() {
		c.book()
		c.inSeg = false
		t := c.segTask
		fn := t.segs[t.next-1].Fn
		c.segTask = nil
		if fn != nil {
			c.acting = t
			fn()
			c.acting = nil
		}
		c.dispatch()
	}
	c.lane.Init(sched, c.segEnd)
	return c
}

// allocTask reuses a recycled task when one is available; the steady
// state runs entirely off the free list.
func (c *CPU) allocTask() *task {
	if n := len(c.free); n > 0 {
		t := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return t
	}
	return &task{}
}

// recycleTask drops a completed task's references and returns it to the
// free list.
func (c *CPU) recycleTask(t *task) {
	clear(t.segs) // drop the actions' captures, keep the backing array
	t.segs, t.onDone = t.segs[:0], nil
	t.next = 0
	if len(c.free) < maxFreeTasks {
		c.free = append(c.free, t) // capacity is preallocated at maxFreeTasks; the len guard keeps it there
	}
}

// Now reports simulated time.
func (c *CPU) Now() sim.Time { return c.sched.Now() }

// Scheduler exposes the driving scheduler.
func (c *CPU) Scheduler() *sim.Scheduler { return c.sched }

// Stats returns a snapshot of CPU accounting.
func (c *CPU) Stats() CPUStats {
	c.book()
	return c.stats
}

// Utilization reports the busy fraction of elapsed time.
func (c *CPU) Utilization() float64 {
	now := c.sched.Now()
	if now == 0 {
		return 0
	}
	c.book()
	return float64(c.stats.BusyTime) / float64(now)
}

// Spl raises (or lowers) the interrupt mask and returns the previous
// value; tasks at level ≤ mask will not be dispatched. Call from inside a
// Seg.Fn, and restore with SplX, mirroring splimp()/splx().
func (c *CPU) Spl(level int) int {
	old := c.mask
	c.mask = level
	c.lane.Truncate()
	return old
}

// SplX restores a mask saved by Spl.
func (c *CPU) SplX(old int) {
	c.mask = old
	c.lane.Truncate()
	c.requestKick()
}

// Mask reports the current spl level (-1 means no masking).
func (c *CPU) Mask() int { return c.mask }

// Submit queues a task at the given interrupt level. onDone (may be nil)
// fires when the task's last segment completes. Dispatch happens at the
// next segment boundary; a higher-level task preempts a lower-level one
// there.
//
// Submit copies segs into the task's own program buffer, so the caller
// keeps ownership of segs and may reuse it as soon as Submit returns: a
// device builds each program into one scratch slice instead of a fresh
// slice per frame.
func (c *CPU) Submit(level int, segs []Seg, onDone func()) {
	if level < 0 || level >= NumLevels {
		sim.Checkf(false, "task level %d out of range", level)
	}
	t := c.allocTask()
	t.level = level
	t.segs = append(t.segs[:0], segs...)
	t.next = 0
	t.onDone = onDone
	t.submitted = c.sched.Now()
	t.started = false
	c.pending[level].Push(t)
	c.ready |= 1 << level
	if c.inSeg && c.bestPending() > c.segTask.level {
		c.lane.Truncate() // the next boundary preempts
	}
	c.requestKick()
}

// Splice inserts segs into the running task, to execute (in order) right
// after the segment whose action is calling Splice and before the task's
// remaining segments; this lets handlers make data-dependent decisions.
// It may be called only from inside a segment's action. Like Submit it
// copies segs, so the caller may reuse its slice once Splice returns.
func (c *CPU) Splice(segs []Seg) {
	t := c.acting
	if t == nil {
		sim.Checkf(false, "Splice called outside a segment action")
	}
	if len(segs) == 0 {
		return
	}
	n := len(t.segs)
	t.segs = append(t.segs, segs...)
	if t.next < n {
		// Open a gap at t.next for the spliced segments.
		copy(t.segs[t.next+len(segs):], t.segs[t.next:n])
		copy(t.segs[t.next:], segs)
	}
}

// requestKick schedules a dispatch pass. Using a zero-delay event keeps
// Submit safe to call from inside segment callbacks without re-entering
// the dispatcher. The callback is the prebuilt kickFn — this runs once
// per task and must not allocate.
func (c *CPU) requestKick() {
	if c.kick {
		return
	}
	c.kick = true
	c.sched.After(0, c.kickFn)
}

// bestPending reports the highest pending level above the spl mask, or -1:
// the top bit of the ready mask once the levels at or below the mask are
// cleared from it.
func (c *CPU) bestPending() int {
	return bits.Len8(c.ready&^uint8(1<<(c.mask+1)-1)) - 1
}

// dispatch picks what runs next. Called only between segments.
func (c *CPU) dispatch() {
	if c.inSeg {
		return // decision happens when the segment ends
	}
	cur := c.top()
	best := c.bestPending()

	switch {
	case cur == nil && best < 0:
		return // idle, nothing to do
	case cur == nil || best > cur.level:
		// Start (or preempt into) the highest pending task.
		t := c.pending[best].Pop()
		if c.pending[best].Len() == 0 {
			c.ready &^= 1 << best
		}
		if cur != nil {
			c.stats.Preemptions++
		}
		c.stack = append(c.stack, t)
		wait := c.sched.Now() - t.submitted
		if wait > c.stats.MaxDispatchWait[t.level] {
			c.stats.MaxDispatchWait[t.level] = wait
		}
		c.stats.TasksRun++
		t.started = true
		c.runSeg()
	default:
		// Continue the current task.
		c.runSeg()
	}
}

func (c *CPU) top() *task {
	if len(c.stack) == 0 {
		return nil
	}
	return c.stack[len(c.stack)-1]
}

// runSeg executes the current task's next segment. Per-segment work is
// the simulator's innermost loop: the segment's end is the CPU's lane
// boundary, which calls the shared segEnd callback.
//
// The boundaries after it are handed to the lane as a quiet run while
// each would only start the next segment: the segment ending there has
// no action and is not the task's last. Such a boundary's segEnd would
// find nothing to run and nothing above the task's level pending (runSeg
// starts the best task), so it would start the next segment, taking the
// seq the lane takes in its place. Three things can change that decision
// or the next segment's cost, and each truncates the run so that the
// next boundary calls segEnd again: a Submit that leaves a pending level
// above the running task's, Spl and SplX, and a system-memory DMA start
// or end. What quiet boundaries start is booked by book.
func (c *CPU) runSeg() {
	t := c.top()
	if t == nil {
		return
	}
	if t.next >= len(t.segs) {
		// Task complete.
		c.stack = c.stack[:len(c.stack)-1]
		done := t.onDone
		c.recycleTask(t)
		if done != nil {
			done()
		}
		c.requestKick()
		return
	}
	seg := &t.segs[t.next]
	t.next++

	dur := c.cost(seg.Cost)
	c.inSeg = true
	c.stats.SegsRun++
	c.stats.BusyTime += dur
	c.segTask = t
	c.lane.Arm(dur)
	c.booked = 0
	for j := t.next; j < len(t.segs) && t.segs[j-1].Fn == nil; j++ {
		if !c.lane.Quiet(c.cost(t.segs[j].Cost)) {
			break
		}
	}
}

// cost reports how long a segment of the given cost takes now: each
// active system-memory DMA stretches it by DMASysInterference.
func (c *CPU) cost(base sim.Time) sim.Time {
	if c.sysDMAActive > 0 {
		return sim.Scale(base, 1+DMASysInterference*float64(c.sysDMAActive))
	}
	return base
}

// book accounts for the segments the lane's quiet boundaries started
// since the last call, as runSeg would have one by one: each advances the
// in-flight task and counts toward SegsRun and BusyTime.
func (c *CPU) book() {
	started := c.lane.Started()
	if len(started) == c.booked {
		return
	}
	for _, d := range started[c.booked:] {
		c.stats.BusyTime += d
	}
	n := len(started) - c.booked
	c.stats.SegsRun += uint64(n)
	c.segTask.next += n
	c.booked = len(started)
}

// dmaStarted/dmaEnded are called by DMA engines to register cycle steal.
// A change in system-memory DMA changes the next segment's cost, so it
// truncates the CPU's quiet run.
func (c *CPU) dmaStarted(target MemoryKind) {
	if target == SystemMemory {
		c.sysDMAActive++
		c.lane.Truncate()
	}
}

func (c *CPU) dmaEnded(target MemoryKind) {
	if target == SystemMemory {
		c.sysDMAActive--
		sim.Checkf(c.sysDMAActive >= 0, "DMA bookkeeping underflow")
		c.lane.Truncate()
	}
}

// String summarizes the CPU state.
func (c *CPU) String() string {
	return fmt.Sprintf("cpu{%s depth=%d mask=%d util=%.1f%%}",
		c.name, len(c.stack), c.mask, 100*c.Utilization())
}
