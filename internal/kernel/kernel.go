package kernel

import (
	"repro/internal/rtpc"
	"repro/internal/sim"
)

// Interrupt levels used by the model, highest first. These mirror the
// BSD spl hierarchy closely enough for the latency interactions that
// matter: the clock above the network, the network above the disk, and
// everything above base (process) level.
const (
	LevelClock   = 7
	LevelVCA     = 6
	LevelNet     = 5
	LevelDisk    = 3
	LevelSoftNet = 2
	LevelBase    = 0
)

// The kernel path costs used by the user-process model: plausible
// 1990-class BSD figures.
const (
	// SyscallEntry is the trap into the kernel at the start of a system
	// call.
	SyscallEntry = 60 * sim.Microsecond
	// SyscallExit is the return to user mode at the end of one.
	SyscallExit = 40 * sim.Microsecond
	// ContextSwitch is the switch into a process that was woken.
	ContextSwitch = 250 * sim.Microsecond
	// WakeupLatency is the kernel's wakeup() path, before the switch.
	WakeupLatency = 120 * sim.Microsecond
	// UserChunk is the segment size user-level compute is sliced into;
	// user code is preemptible, so its segments are short.
	UserChunk = 200 * sim.Microsecond
)

// Kernel ties one machine's kernel state together.
type Kernel struct {
	Machine *rtpc.Machine
	Pool    *Pool
}

// New builds a kernel for a machine with default pool sizing.
func New(m *rtpc.Machine) *Kernel {
	return &Kernel{Machine: m, Pool: NewPool(0, 0)}
}

// Sched exposes the scheduler.
func (k *Kernel) Sched() *sim.Scheduler { return k.Machine.Scheduler() }

// CPU exposes the machine's CPU.
func (k *Kernel) CPU() *rtpc.CPU { return k.Machine.CPU }
