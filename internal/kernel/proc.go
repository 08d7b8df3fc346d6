package kernel

import (
	"repro/internal/rtpc"
	"repro/internal/sim"
)

// Proc models a user process. Its behaviour is a loop the caller defines:
// each iteration typically sleeps on a condition, wakes, makes syscalls
// and burns user CPU. User compute is sliced into short segments so the
// process never blocks interrupt dispatch for long (user code is
// preemptible).
type Proc struct {
	k       *Kernel
	name    string
	blocked bool
	wakeFn  func()

	Syscalls     uint64
	UserTime     sim.Time
	Wakeups      uint64
	MaxWakeDelay sim.Time
	sleptAt      sim.Time
}

// NewProc registers a process with the kernel.
func (k *Kernel) NewProc(name string) *Proc {
	p := &Proc{k: k, name: name}
	k.procs = append(k.procs, p)
	return p
}

// Name reports the process name.
func (p *Proc) Name() string { return p.name }

// userSegs slices a user compute cost into preemptible chunks.
func (p *Proc) userSegs(cost sim.Time) []rtpc.Seg {
	chunk := p.k.Costs.UserChunk
	var segs []rtpc.Seg
	for cost > 0 {
		c := chunk
		if cost < c {
			c = cost
		}
		cost -= c
		segs = append(segs, rtpc.Do(c))
	}
	if len(segs) == 0 {
		segs = append(segs, rtpc.Do(0))
	}
	return segs
}

// Compute burns user CPU time, then calls done. The process competes at
// base level with every other process and kernel bottom half.
func (p *Proc) Compute(cost sim.Time, done func()) {
	p.UserTime += cost
	p.k.CPU().Submit(LevelBase, p.userSegs(cost), done)
}

// Syscall models entry into the kernel, a body cost (for example a
// copyin/copyout), and the return to user mode.
func (p *Proc) Syscall(body sim.Time, done func()) {
	p.Syscalls++
	c := p.k.Costs
	segs := []rtpc.Seg{
		rtpc.Do(c.SyscallEntry),
		rtpc.Do(body),
		rtpc.Do(c.SyscallExit),
	}
	p.k.CPU().Submit(LevelBase, segs, done)
}

// Sleep blocks the process; Wakeup unblocks it, after the kernel's wakeup
// latency and a context switch, both competing for the CPU at base level.
func (p *Proc) Sleep(onWake func()) {
	sim.Checkf(!p.blocked, "proc %s double sleep", p.name)
	p.blocked = true
	p.wakeFn = onWake
	p.sleptAt = p.k.Sched().Now()
}

// Blocked reports whether the process is sleeping.
func (p *Proc) Blocked() bool { return p.blocked }

// Wakeup makes the process runnable. If it is not sleeping this is a
// no-op (as the kernel's wakeup() on an empty channel is).
func (p *Proc) Wakeup() {
	if !p.blocked {
		return
	}
	p.blocked = false
	fn := p.wakeFn
	p.wakeFn = nil
	p.Wakeups++
	c := p.k.Costs
	sleptAt := p.sleptAt
	segs := []rtpc.Seg{
		rtpc.Do(c.WakeupLatency),
		rtpc.Do(c.ContextSwitch),
	}
	p.k.CPU().Submit(LevelBase, segs, func() {
		d := p.k.Sched().Now() - sleptAt
		if d > p.MaxWakeDelay {
			p.MaxWakeDelay = d
		}
		fn()
	})
}

// BackgroundLoad runs an endless nice-level compute loop: each burst burns
// busyFrac of every period in user chunks. It models the "multiprocessing
// mode" competing processes of Test Case B.
func (p *Proc) BackgroundLoad(period sim.Time, busyFrac float64) {
	sim.Checkf(busyFrac >= 0 && busyFrac <= 1, "busyFrac %v out of range", busyFrac)
	burst := sim.Scale(period, busyFrac)
	var loop func()
	loop = func() {
		p.Compute(burst, func() {
			idle := period - burst
			if idle < 0 {
				idle = 0
			}
			p.k.Sched().After(idle, loop)
		})
	}
	loop()
}
