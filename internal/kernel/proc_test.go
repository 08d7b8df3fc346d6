package kernel

import (
	"testing"

	"repro/internal/rtpc"
	"repro/internal/sim"
)

func newKernel() (*sim.Scheduler, *Kernel) {
	sched := sim.NewScheduler()
	m := rtpc.NewMachine(sched, "test", 1)
	return sched, New(m)
}

func TestProcSyscallCosts(t *testing.T) {
	sched, k := newKernel()
	p := k.NewProc("relay")
	var doneAt sim.Time
	p.Syscall(100*sim.Microsecond, func() { doneAt = sched.Now() })
	sched.Run()
	want := SyscallEntry + 100*sim.Microsecond + SyscallExit
	if doneAt != want {
		t.Fatalf("syscall cost: got %v want %v", doneAt, want)
	}
	if p.Syscalls != 1 {
		t.Fatal("syscall accounting")
	}
}

func TestProcComputeIsPreemptible(t *testing.T) {
	sched, k := newKernel()
	p := k.NewProc("cruncher")
	p.Compute(10*sim.Millisecond, nil)
	// An interrupt arriving mid-compute must be dispatched within one
	// user chunk (200µs), not after the whole 10ms.
	var entry sim.Time
	sched.After(sim.Millisecond, func() {
		k.CPU().Submit(LevelNet, []rtpc.Seg{rtpc.Mark(func() { entry = sched.Now() })}, nil)
	})
	sched.Run()
	latency := entry - sim.Millisecond
	if latency > UserChunk {
		t.Fatalf("user compute blocked an interrupt for %v", latency)
	}
}

func TestSleepWakeup(t *testing.T) {
	sched, k := newKernel()
	p := k.NewProc("sleeper")
	woke := false
	p.Sleep(func() { woke = true })
	if !p.Blocked() {
		t.Fatal("proc should be blocked")
	}
	sched.After(sim.Millisecond, p.Wakeup)
	sched.Run()
	if !woke {
		t.Fatal("wakeup callback never ran")
	}
	if p.Blocked() {
		t.Fatal("proc should be runnable after wake")
	}
	if p.MaxWakeDelay < sim.Millisecond {
		t.Fatalf("wake delay should include the sleep: %v", p.MaxWakeDelay)
	}
	// Wakeup on a non-sleeping proc is a no-op.
	p.Wakeup()
	if p.Wakeups != 1 {
		t.Fatalf("spurious wakeup counted: %d", p.Wakeups)
	}
}

func TestWakeupPaysSchedulingCosts(t *testing.T) {
	sched, k := newKernel()
	p := k.NewProc("sleeper")
	var wokeAt sim.Time
	p.Sleep(func() { wokeAt = sched.Now() })
	p.Wakeup()
	sched.Run()
	want := WakeupLatency + ContextSwitch
	if wokeAt != want {
		t.Fatalf("wakeup should cost %v, took %v", want, wokeAt)
	}
}

func TestBackgroundLoadConsumesCPU(t *testing.T) {
	sched, k := newKernel()
	p := k.NewProc("bg")
	p.BackgroundLoad(10*sim.Millisecond, 0.5)
	sched.RunUntil(sim.Second)
	util := k.CPU().Utilization()
	if util < 0.4 || util > 0.6 {
		t.Fatalf("50%% background load should show ~50%% CPU, got %.2f", util)
	}
}

func TestDoubleSleepPanics(t *testing.T) {
	_, k := newKernel()
	p := k.NewProc("x")
	p.Sleep(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("double sleep must panic")
		}
	}()
	p.Sleep(func() {})
}
