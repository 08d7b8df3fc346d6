package rtpc

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// refCPU is the per-segment CPU the lane CPU replaced, kept as an oracle:
// every segment end is its own scheduler event, whose callback runs the
// action and dispatches. The lane CPU fires quiet boundaries in place and
// books them lazily; for any task mix the two must run every action at
// the same instant with the same Fired count, and agree on Stats.
type refCPU struct {
	sched   *sim.Scheduler
	pending [NumLevels]sim.FIFO[*task]
	ready   uint8
	stack   []*task
	inSeg   bool
	mask    int
	kick    bool
	segTask *task
	segFn   func()
	acting  *task

	sysDMAActive int
	stats        CPUStats
}

func newRefCPU(sched *sim.Scheduler) *refCPU {
	return &refCPU{sched: sched, mask: -1}
}

func (c *refCPU) Stats() CPUStats { return c.stats }

func (c *refCPU) Spl(level int) int {
	old := c.mask
	c.mask = level
	return old
}

func (c *refCPU) SplX(old int) {
	c.mask = old
	c.requestKick()
}

func (c *refCPU) Submit(level int, segs []Seg, onDone func()) {
	t := &task{level: level, segs: append([]Seg(nil), segs...), onDone: onDone, submitted: c.sched.Now()}
	c.pending[level].Push(t)
	c.ready |= 1 << level
	c.requestKick()
}

func (c *refCPU) Splice(segs []Seg) {
	t := c.acting
	if len(segs) == 0 {
		return
	}
	n := len(t.segs)
	t.segs = append(t.segs, segs...)
	if t.next < n {
		copy(t.segs[t.next+len(segs):], t.segs[t.next:n])
		copy(t.segs[t.next:], segs)
	}
}

func (c *refCPU) requestKick() {
	if c.kick {
		return
	}
	c.kick = true
	c.sched.After(0, func() {
		c.kick = false
		c.dispatch()
	})
}

func (c *refCPU) segEnd() {
	c.inSeg = false
	t, fn := c.segTask, c.segFn
	c.segTask, c.segFn = nil, nil
	if fn != nil {
		c.acting = t
		fn()
		c.acting = nil
	}
	c.dispatch()
}

func (c *refCPU) dispatch() {
	if c.inSeg {
		return
	}
	var cur *task
	if len(c.stack) > 0 {
		cur = c.stack[len(c.stack)-1]
	}
	best := bits.Len8(c.ready&^uint8(1<<(c.mask+1)-1)) - 1
	switch {
	case cur == nil && best < 0:
		return
	case cur == nil || best > cur.level:
		t := c.pending[best].Pop()
		if c.pending[best].Len() == 0 {
			c.ready &^= 1 << best
		}
		if cur != nil {
			c.stats.Preemptions++
		}
		c.stack = append(c.stack, t)
		if wait := c.sched.Now() - t.submitted; wait > c.stats.MaxDispatchWait[t.level] {
			c.stats.MaxDispatchWait[t.level] = wait
		}
		c.stats.TasksRun++
		t.started = true
		c.runSeg()
	default:
		c.runSeg()
	}
}

func (c *refCPU) runSeg() {
	t := c.stack[len(c.stack)-1]
	if t.next >= len(t.segs) {
		c.stack = c.stack[:len(c.stack)-1]
		if t.onDone != nil {
			t.onDone()
		}
		c.requestKick()
		return
	}
	seg := &t.segs[t.next]
	t.next++
	dur := seg.Cost
	if c.sysDMAActive > 0 {
		dur = sim.Scale(dur, 1+DMASysInterference*float64(c.sysDMAActive))
	}
	c.inSeg = true
	c.stats.SegsRun++
	c.stats.BusyTime += dur
	c.segTask = t
	c.segFn = seg.Fn
	c.sched.After(dur, c.segEnd)
}

// refDMA is DMA driving a refCPU's interference count.
type refDMA struct {
	cpu   *refCPU
	busy  bool
	queue sim.FIFO[dmaXfer]
}

func (d *refDMA) Transfer(n int, target MemoryKind, done func()) {
	d.queue.Push(dmaXfer{n: n, target: target, done: done})
	d.pump()
}

func (d *refDMA) pump() {
	if d.busy || d.queue.Len() == 0 {
		return
	}
	x := d.queue.Pop()
	d.busy = true
	if x.target == SystemMemory {
		d.cpu.sysDMAActive++
	}
	d.cpu.sched.After(DMACost(x.n, x.target), func() {
		if x.target == SystemMemory {
			d.cpu.sysDMAActive--
		}
		d.busy = false
		if x.done != nil {
			x.done()
		}
		d.pump()
	})
}

// cpuModel is what the task mix drives: the lane CPU or the oracle, each
// with two DMA engines.
type cpuModel interface {
	Submit(level int, segs []Seg, onDone func())
	Splice(segs []Seg)
	Spl(level int) int
	SplX(old int)
	Stats() CPUStats
	transfer(engine, n int, target MemoryKind, done func())
}

type laneModel struct {
	*CPU
	dma [2]*DMA
}

func (m laneModel) transfer(engine, n int, target MemoryKind, done func()) {
	m.dma[engine].Transfer(n, target, done)
}

type refModel struct {
	*refCPU
	dma [2]*refDMA
}

func (m refModel) transfer(engine, n int, target MemoryKind, done func()) {
	m.dma[engine].Transfer(n, target, done)
}

// actRec is one observed action: its id, the clock and Fired count when
// it ran, and the CPU's SegsRun and BusyTime as Stats reported them then.
type actRec struct {
	at    sim.Time
	id    int
	fired uint64
	segs  uint64
	busy  sim.Time
}

// cpuMix drives a CPU through random task programs. All randomness comes
// from one seeded source consumed in action order, so two CPUs that run
// the same actions at the same instants see identical scripts.
type cpuMix struct {
	rng    *rand.Rand
	sched  *sim.Scheduler
	cpu    cpuModel
	log    []actRec
	nextID int
	budget int
}

func (m *cpuMix) record(id int) {
	st := m.cpu.Stats()
	m.log = append(m.log, actRec{at: m.sched.Now(), id: id, fired: m.sched.Fired(), segs: st.SegsRun, busy: st.BusyTime})
}

// cost draws a segment cost on a 50 µs grid, zero included, so segment
// ends often tie with each other and with the external events.
func (m *cpuMix) cost() sim.Time {
	if m.rng.Intn(8) == 0 {
		return sim.Time(m.rng.Intn(3000)) // sub-grid, rarely tying
	}
	return sim.Time(m.rng.Intn(9)) * 50 * sim.Microsecond
}

// program builds a random task: mostly action-free segments (chunked
// copies), some with actions that submit, splice, start DMA or read
// Stats, and sometimes an Spl/SplX pair around a stretch of the task.
func (m *cpuMix) program() []Seg {
	segs := make([]Seg, 1+m.rng.Intn(12))
	for i := range segs {
		segs[i].Cost = m.cost()
		if m.rng.Intn(4) == 0 {
			segs[i].Fn = m.action()
		}
	}
	if len(segs) >= 3 && m.rng.Intn(3) == 0 {
		i := m.rng.Intn(len(segs) - 2)
		j := i + 1 + m.rng.Intn(len(segs)-i-1)
		level := m.rng.Intn(NumLevels) - 1
		saved := 0
		id := m.id()
		segs[i].Fn = func() {
			m.record(id)
			saved = m.cpu.Spl(level)
		}
		segs[j].Fn = func() {
			m.record(id)
			m.cpu.SplX(saved)
		}
	}
	return segs
}

func (m *cpuMix) id() int {
	m.nextID++
	return m.nextID
}

// action builds a segment action that records itself and then does one
// of the things a handler does.
func (m *cpuMix) action() func() {
	id := m.id()
	return func() {
		m.record(id)
		switch m.rng.Intn(6) {
		case 0, 1:
			m.submit()
		case 2:
			m.cpu.Splice(m.program())
		case 3:
			target := IOChannelMemory
			if m.rng.Intn(3) != 0 {
				target = SystemMemory
			}
			done := m.id()
			m.cpu.transfer(m.rng.Intn(2), 200+m.rng.Intn(3000), target, func() {
				m.record(done)
				if m.rng.Intn(2) == 0 {
					m.submit()
				}
			})
		}
	}
}

func (m *cpuMix) submit() {
	if m.budget <= 0 {
		return
	}
	m.budget--
	id := m.id()
	m.cpu.Submit(m.rng.Intn(NumLevels), m.program(), func() { m.record(id) })
}

// source submits a task at a random level every few grid steps, from
// outside the CPU, like a device interrupt.
func (m *cpuMix) source() {
	id := m.id()
	var tick func()
	tick = func() {
		m.record(id)
		m.submit()
		if m.budget > 0 {
			m.sched.After(sim.Time(1+m.rng.Intn(20))*50*sim.Microsecond, tick)
		}
	}
	m.sched.After(0, tick)
}

// masker raises the spl mask from outside the CPU, as another
// processor's code or a timer would, and later drops it again, so masks
// change in the middle of quiet runs.
func (m *cpuMix) masker() {
	id := m.id()
	var tick func()
	tick = func() {
		m.record(id)
		if m.rng.Intn(2) == 0 {
			m.cpu.Spl(m.rng.Intn(NumLevels))
		} else {
			m.cpu.SplX(-1)
		}
		if m.budget > 0 {
			m.sched.After(sim.Time(1+m.rng.Intn(30))*50*sim.Microsecond+sim.Time(m.rng.Intn(2)), tick)
		}
	}
	m.sched.After(0, tick)
}

func TestLaneCPUMatchesPerSegmentCPU(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		mixes := [2]*cpuMix{}
		for i := range mixes {
			sched := sim.NewScheduler()
			var cpu cpuModel
			if i == 0 {
				c := NewCPU(sched, "lane")
				cpu = laneModel{c, [2]*DMA{NewDMA(c), NewDMA(c)}}
			} else {
				c := newRefCPU(sched)
				cpu = refModel{c, [2]*refDMA{{cpu: c}, {cpu: c}}}
			}
			m := &cpuMix{rng: rand.New(rand.NewSource(seed)), sched: sched, cpu: cpu, budget: 400}
			for range 1 + int(seed%3) {
				m.source()
			}
			if seed%2 == 0 {
				m.masker()
			}
			mixes[i] = m
		}
		lane, ref := mixes[0], mixes[1]
		for _, bound := range []sim.Time{3 * sim.Millisecond, 17*sim.Millisecond + 25*sim.Microsecond, 40 * sim.Millisecond} {
			lane.sched.RunUntil(bound)
			ref.sched.RunUntil(bound)
			if got, want := lane.cpu.Stats(), ref.cpu.Stats(); got != want {
				t.Fatalf("seed %d, RunUntil(%v): Stats %+v, per-segment %+v", seed, bound, got, want)
			}
		}
		lane.sched.Run()
		ref.sched.Run()
		for i := range min(len(lane.log), len(ref.log)) {
			if lane.log[i] != ref.log[i] {
				t.Fatalf("seed %d: action %d diverged: lane %+v, per-segment %+v", seed, i, lane.log[i], ref.log[i])
			}
		}
		if len(lane.log) != len(ref.log) {
			t.Fatalf("seed %d: %d actions ran, per-segment %d", seed, len(lane.log), len(ref.log))
		}
		if got, want := lane.cpu.Stats(), ref.cpu.Stats(); got != want {
			t.Fatalf("seed %d: Stats %+v, per-segment %+v", seed, got, want)
		}
		if got, want := lane.sched.Fired(), ref.sched.Fired(); got != want {
			t.Fatalf("seed %d: Fired %d, per-segment %d", seed, got, want)
		}
		if lane.sched.QuietFired() == 0 {
			t.Fatalf("seed %d: no boundary fired quietly: the mix does not reach the lane", seed)
		}
		if len(lane.log) < 200 {
			t.Fatalf("seed %d: only %d actions ran", seed, len(lane.log))
		}
	}
}
