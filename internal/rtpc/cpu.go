package rtpc

import (
	"fmt"

	"repro/internal/sim"
)

// NumLevels is the number of interrupt priority levels. Level 0 is base
// (user and ordinary kernel) level; higher levels preempt lower ones at
// segment boundaries.
const NumLevels = 8

// Seg is one uninterruptible stretch of code: the CPU cannot be preempted
// inside a segment, only between segments. The longest segment in the
// system therefore bounds worst-case interrupt dispatch latency — exactly
// the paper's "execution of protected code segments" jitter source.
//
// Fn runs when the segment's cost has elapsed. It may return further
// segments, which are executed (in order) before the task's remaining
// segments; this lets handlers make data-dependent decisions.
type Seg struct {
	Cost sim.Time
	Fn   func() []Seg
}

// Do builds a segment with just a cost.
func Do(cost sim.Time) Seg { return Seg{Cost: cost} }

// Then builds a segment with a cost and a completion action.
func Then(cost sim.Time, fn func()) Seg {
	return Seg{Cost: cost, Fn: func() []Seg { fn(); return nil }}
}

// Mark builds a zero-cost probe segment; fn observes the instant between
// two segments (used for the paper's measurement points).
func Mark(fn func()) Seg {
	return Seg{Fn: func() []Seg { fn(); return nil }}
}

// Task is a unit of schedulable work at an interrupt level. Tasks are
// recycled through a per-CPU free list: the pointer is owned by the CPU
// from Submit until the last segment completes, and callers never see it.
type task struct {
	level     int
	segs      []Seg
	next      int // index of the next segment to run; segs is never re-sliced
	onDone    func()
	submitted sim.Time
	started   bool
}

// taskq is a FIFO of pending tasks at one interrupt level. Pop advances a
// head index instead of re-slicing, so the backing array is reused across
// the run instead of reallocated once per task; it compacts only when the
// dead prefix dominates.
type taskq struct {
	items []*task
	head  int
}

func (q *taskq) len() int { return len(q.items) - q.head }

//ctmsvet:hotpath
func (q *taskq) push(t *task) {
	q.items = append(q.items, t) //ctmsvet:allow hotpath queue grows to steady-state depth once, then reuses its backing array
}

//ctmsvet:hotpath
func (q *taskq) pop() *task {
	t := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head >= 32 && q.head*2 >= len(q.items):
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return t
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
	pending [NumLevels]taskq
	stack   []*task // running task stack; top is executing
	inSeg   bool    // a segment is currently burning cycles
	mask    int     // spl: tasks at level ≤ mask cannot start
	kick    bool    // a dispatch kick event is queued

	// Dispatch runs once per task and segment ends run once per segment —
	// the busiest paths in the whole simulator — so their callbacks are
	// built once here, not per event.
	kickFn  func()
	segEnd  func()       // shared end-of-segment callback
	segTask *task        // task whose segment is in flight (inSeg)
	segFn   func() []Seg // that segment's completion action
	free    []*task      // recycled task objects

	sysDMAActive int // DMA engines currently targeting system memory
	interference float64

	stats CPUStats
}

// maxFreeTasks caps the task free list; the steady state needs only as
// many tasks as can be simultaneously pending plus stacked.
const maxFreeTasks = 256

// NewCPU creates a CPU driven by sched. interference is the fractional
// slowdown applied to segment execution per active system-memory DMA.
func NewCPU(sched *sim.Scheduler, name string, interference float64) *CPU {
	c := &CPU{
		sched:        sched,
		name:         name,
		interference: interference,
		mask:         -1,
		free:         make([]*task, 0, maxFreeTasks),
	}
	c.kickFn = func() {
		c.kick = false
		c.dispatch()
	}
	// One segment is in flight at a time (inSeg gates dispatch and
	// preemption happens only at segment boundaries), so a single shared
	// callback reading segTask/segFn replaces a fresh closure per segment.
	c.segEnd = func() {
		c.inSeg = false
		t, fn := c.segTask, c.segFn
		c.segTask, c.segFn = nil, nil
		if fn != nil {
			if more := fn(); len(more) > 0 {
				if t.next >= len(t.segs) {
					// Common case: the finished segment was the last one;
					// adopt the returned slice outright.
					t.segs, t.next = more, 0
				} else {
					rest := t.segs[t.next:]
					ns := make([]Seg, 0, len(more)+len(rest))
					ns = append(ns, more...)
					ns = append(ns, rest...)
					t.segs, t.next = ns, 0
				}
			}
		}
		c.dispatch()
	}
	return c
}

// allocTask reuses a recycled task when one is available; the steady
// state runs entirely off the free list.
//
//ctmsvet:hotpath
func (c *CPU) allocTask() *task {
	if n := len(c.free); n > 0 {
		t := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return t
	}
	return &task{} //ctmsvet:allow hotpath cold refill path, runs only until the free list reaches steady state
}

// recycleTask drops a completed task's references and returns it to the
// free list.
//
//ctmsvet:hotpath
func (c *CPU) recycleTask(t *task) {
	t.segs, t.onDone = nil, nil
	t.next = 0
	if len(c.free) < maxFreeTasks {
		c.free = append(c.free, t) //ctmsvet:allow hotpath free list capacity is preallocated at maxFreeTasks and the len guard keeps it there
	}
}

// Now reports simulated time.
func (c *CPU) Now() sim.Time { return c.sched.Now() }

// Scheduler exposes the driving scheduler.
func (c *CPU) Scheduler() *sim.Scheduler { return c.sched }

// Stats returns a snapshot of CPU accounting.
func (c *CPU) Stats() CPUStats { return c.stats }

// Utilization reports the busy fraction of elapsed time.
func (c *CPU) Utilization() float64 {
	now := c.sched.Now()
	if now == 0 {
		return 0
	}
	return float64(c.stats.BusyTime) / float64(now)
}

// Spl raises (or lowers) the interrupt mask and returns the previous
// value; tasks at level ≤ mask will not be dispatched. Call from inside a
// Seg.Fn, and restore with SplX, mirroring splimp()/splx().
func (c *CPU) Spl(level int) int {
	old := c.mask
	c.mask = level
	return old
}

// SplX restores a mask saved by Spl.
func (c *CPU) SplX(old int) {
	c.mask = old
	c.requestKick()
}

// Mask reports the current spl level (-1 means no masking).
func (c *CPU) Mask() int { return c.mask }

// Submit queues a task at the given interrupt level. onDone (may be nil)
// fires when the task's last segment completes. Dispatch happens at the
// next segment boundary; a higher-level task preempts a lower-level one
// there.
//
//ctmsvet:hotpath
func (c *CPU) Submit(level int, segs []Seg, onDone func()) {
	if level < 0 || level >= NumLevels {
		sim.Checkf(false, "task level %d out of range", level)
	}
	t := c.allocTask()
	t.level = level
	t.segs, t.next = segs, 0
	t.onDone = onDone
	t.submitted = c.sched.Now()
	t.started = false
	c.pending[level].push(t)
	c.requestKick()
}

// Busy reports whether a segment is executing right now.
func (c *CPU) Busy() bool { return c.inSeg }

// QueueDepth reports pending tasks at a level.
func (c *CPU) QueueDepth(level int) int { return c.pending[level].len() }

// requestKick schedules a dispatch pass. Using a zero-delay event keeps
// Submit safe to call from inside segment callbacks without re-entering
// the dispatcher. The callback is the prebuilt kickFn — this runs once
// per task and must not allocate.
//
//ctmsvet:hotpath
func (c *CPU) requestKick() {
	if c.kick {
		return
	}
	c.kick = true
	c.sched.After(0, c.kickFn)
}

// bestPending reports the highest pending level above the spl mask, or -1.
//
//ctmsvet:hotpath
func (c *CPU) bestPending() int {
	for l := NumLevels - 1; l >= 0; l-- {
		if l <= c.mask {
			break
		}
		if c.pending[l].len() > 0 {
			return l
		}
	}
	return -1
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
		t := c.pending[best].pop()
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
// the simulator's innermost loop: the end-of-segment event reuses the
// shared segEnd callback, so a segment costs one (recycled) scheduler
// event and nothing else.
//
//ctmsvet:hotpath
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

	dur := seg.Cost
	if c.sysDMAActive > 0 && c.interference > 0 {
		dur = sim.Scale(dur, 1+c.interference*float64(c.sysDMAActive))
	}
	c.inSeg = true
	c.stats.SegsRun++
	c.stats.BusyTime += dur
	c.segTask = t
	c.segFn = seg.Fn
	c.sched.After(dur, c.segEnd)
}

// dmaStarted/dmaEnded are called by DMA engines to register cycle steal.
func (c *CPU) dmaStarted(target MemoryKind) {
	if target == SystemMemory {
		c.sysDMAActive++
	}
}

func (c *CPU) dmaEnded(target MemoryKind) {
	if target == SystemMemory {
		c.sysDMAActive--
		sim.Checkf(c.sysDMAActive >= 0, "DMA bookkeeping underflow")
	}
}

// String summarizes the CPU state.
func (c *CPU) String() string {
	return fmt.Sprintf("cpu{%s depth=%d mask=%d util=%.1f%%}",
		c.name, len(c.stack), c.mask, 100*c.Utilization())
}
