package rtpc

import (
	"testing"

	"repro/internal/sim"
)

func newCPU() (*sim.Scheduler, *CPU) {
	sched := sim.NewScheduler()
	return sched, NewCPU(sched, "cpu", 0.3)
}

func TestTaskRunsSegmentsInOrder(t *testing.T) {
	sched, cpu := newCPU()
	var order []string
	var doneAt sim.Time
	cpu.Submit(1, []Seg{
		Then(10*sim.Microsecond, func() { order = append(order, "a") }),
		Then(20*sim.Microsecond, func() { order = append(order, "b") }),
	}, func() { doneAt = sched.Now() })
	sched.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("segment order wrong: %v", order)
	}
	if doneAt != 30*sim.Microsecond {
		t.Fatalf("task should finish at 30µs, got %v", doneAt)
	}
}

func TestHigherLevelPreemptsAtSegmentBoundary(t *testing.T) {
	sched, cpu := newCPU()
	var order []string
	// A long low-level task of two 100µs segments.
	cpu.Submit(1, []Seg{
		Then(100*sim.Microsecond, func() { order = append(order, "low1") }),
		Then(100*sim.Microsecond, func() { order = append(order, "low2") }),
	}, nil)
	// A high-level interrupt arrives mid-first-segment.
	sched.After(50*sim.Microsecond, func() {
		cpu.Submit(6, []Seg{
			Then(10*sim.Microsecond, func() { order = append(order, "irq") }),
		}, nil)
	})
	sched.Run()
	want := []string{"low1", "irq", "low2"}
	if len(order) != 3 {
		t.Fatalf("want 3 events, got %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("preemption order wrong: got %v want %v", order, want)
		}
	}
}

func TestInterruptLatencyBoundedBySegmentLength(t *testing.T) {
	sched, cpu := newCPU()
	// Background task with 400µs protected segments, like the kernel's
	// protected code paths.
	for i := 0; i < 10; i++ {
		cpu.Submit(0, []Seg{Do(400 * sim.Microsecond)}, nil)
	}
	var entry sim.Time
	sched.After(100*sim.Microsecond, func() {
		cpu.Submit(6, []Seg{Mark(func() { entry = sched.Now() })}, nil)
	})
	sched.Run()
	latency := entry - 100*sim.Microsecond
	if latency <= 0 || latency > 400*sim.Microsecond {
		t.Fatalf("interrupt latency %v should be bounded by the 400µs segment", latency)
	}
}

func TestEqualLevelDoesNotPreempt(t *testing.T) {
	sched, cpu := newCPU()
	var order []string
	cpu.Submit(3, []Seg{
		Then(10*sim.Microsecond, func() { order = append(order, "f1") }),
		Then(10*sim.Microsecond, func() { order = append(order, "f2") }),
	}, nil)
	sched.After(5*sim.Microsecond, func() {
		cpu.Submit(3, []Seg{
			Then(10*sim.Microsecond, func() { order = append(order, "s") }),
		}, nil)
	})
	sched.Run()
	if order[0] != "f1" || order[1] != "f2" || order[2] != "s" {
		t.Fatalf("equal level should queue FIFO, got %v", order)
	}
}

func TestSplMasksDispatch(t *testing.T) {
	sched, cpu := newCPU()
	var order []string
	cpu.Submit(1, []Seg{
		Mark(func() { cpu.Spl(6) }),
		Then(50*sim.Microsecond, func() { order = append(order, "crit1") }),
		Then(50*sim.Microsecond, func() { order = append(order, "crit2") }),
		Mark(func() { cpu.SplX(-1) }),
		Then(10*sim.Microsecond, func() { order = append(order, "tail") }),
	}, nil)
	sched.After(20*sim.Microsecond, func() {
		cpu.Submit(5, []Seg{Mark(func() { order = append(order, "irq") })}, nil)
	})
	sched.Run()
	// The level-5 interrupt must wait for SplX even though segment
	// boundaries pass at 50µs and 100µs.
	want := []string{"crit1", "crit2", "irq", "tail"}
	if len(order) != 4 {
		t.Fatalf("want 4 events, got %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("spl should defer the interrupt: got %v", order)
		}
	}
}

func TestSegFnCanExtendTask(t *testing.T) {
	sched, cpu := newCPU()
	var order []string
	cpu.Submit(2, []Seg{
		{Cost: 10 * sim.Microsecond, Fn: func() []Seg {
			order = append(order, "head")
			return []Seg{Then(5*sim.Microsecond, func() { order = append(order, "inserted") })}
		}},
		Then(5*sim.Microsecond, func() { order = append(order, "tail") }),
	}, nil)
	sched.Run()
	want := []string{"head", "inserted", "tail"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dynamic segments out of order: %v", order)
		}
	}
}

func TestDMAInterferenceSlowsCPU(t *testing.T) {
	sched, cpu := newCPU()
	cost := DefaultCostModel()
	dma := NewDMA(cpu, cost)

	// Start a long DMA into system memory, then a CPU segment.
	dma.Transfer(5000, SystemMemory, nil)
	var doneAt sim.Time
	cpu.Submit(1, []Seg{Do(1000 * sim.Microsecond)}, func() { doneAt = sched.Now() })
	sched.Run()
	// 30% interference: the 1000µs segment should take 1300µs.
	if doneAt != 1300*sim.Microsecond {
		t.Fatalf("DMA into system memory should slow the CPU by 30%%: done at %v", doneAt)
	}
}

func TestIOChannelDMADoesNotSlowCPU(t *testing.T) {
	sched, cpu := newCPU()
	cost := DefaultCostModel()
	dma := NewDMA(cpu, cost)
	dma.Transfer(5000, IOChannelMemory, nil)
	var doneAt sim.Time
	cpu.Submit(1, []Seg{Do(1000 * sim.Microsecond)}, func() { doneAt = sched.Now() })
	sched.Run()
	if doneAt != 1000*sim.Microsecond {
		t.Fatalf("IO Channel Memory DMA must not steal CPU cycles: done at %v", doneAt)
	}
}

func TestDMASerializesTransfers(t *testing.T) {
	sched, cpu := newCPU()
	cost := DefaultCostModel()
	dma := NewDMA(cpu, cost)
	var ends []sim.Time
	dma.Transfer(1000, IOChannelMemory, func() { ends = append(ends, sched.Now()) })
	dma.Transfer(1000, IOChannelMemory, func() { ends = append(ends, sched.Now()) })
	sched.Run()
	per := cost.DMACost(1000, IOChannelMemory)
	if per <= cost.DMACost(1000, SystemMemory) {
		t.Fatal("IO Channel Bus DMA should be slower than system-memory DMA")
	}
	if len(ends) != 2 || ends[0] != per || ends[1] != 2*per {
		t.Fatalf("transfers should serialize: %v (per=%v)", ends, per)
	}
	if dma.Transfers() != 2 || dma.Bytes() != 2000 {
		t.Fatal("DMA accounting wrong")
	}
}

func TestCopyCostModel(t *testing.T) {
	c := DefaultCostModel()
	if got := c.CopyCost(2000, SystemMemory, IOChannelMemory); got != 2*sim.Millisecond {
		t.Fatalf("2000-byte copy into IO Channel Memory must cost 2000µs (the paper's 1µs/byte), got %v", got)
	}
	if c.CopyCost(100, SystemMemory, SystemMemory) >= c.CopyCost(100, SystemMemory, IOChannelMemory) {
		t.Fatal("system-to-system copies should be cheaper than crossing the IOCC")
	}
	if c.CopyCost(100, DeviceMemory, SystemMemory) <= c.CopyCost(100, SystemMemory, IOChannelMemory) {
		t.Fatal("byte-wide device IO should be the slowest path")
	}
}

func TestBufferLifecycle(t *testing.T) {
	b := NewBuffer("txdma", IOChannelMemory, 4096)
	if b.InUse() {
		t.Fatal("fresh buffer should be free")
	}
	b.Fill(2000, "pkt")
	if !b.InUse() || b.Used() != 2000 || b.Content() != "pkt" {
		t.Fatal("fill not recorded")
	}
	b.Clear()
	if b.InUse() {
		t.Fatal("clear should free the buffer")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overrun must panic")
		}
	}()
	b.Fill(5000, nil)
}

func TestDispatchWaitAccounting(t *testing.T) {
	sched, cpu := newCPU()
	cpu.Submit(0, []Seg{Do(300 * sim.Microsecond)}, nil)
	sched.After(10*sim.Microsecond, func() {
		cpu.Submit(4, []Seg{Do(sim.Microsecond)}, nil)
	})
	sched.Run()
	if w := cpu.Stats().MaxDispatchWait[4]; w < 200*sim.Microsecond {
		t.Fatalf("dispatch wait should reflect blocking, got %v", w)
	}
	if cpu.Stats().TasksRun != 2 {
		t.Fatalf("want 2 tasks run, got %d", cpu.Stats().TasksRun)
	}
}

func TestMachineHelpers(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMachine(sched, "tx", DefaultCostModel(), 42)
	seg := m.CopySeg(1000, SystemMemory, IOChannelMemory)
	if seg.Cost != sim.Millisecond {
		t.Fatalf("CopySeg cost wrong: %v", seg.Cost)
	}
	for i := 0; i < 100; i++ {
		j := m.Jitter(50 * sim.Microsecond)
		if j < 0 || j > 50*sim.Microsecond {
			t.Fatalf("jitter out of range: %v", j)
		}
	}
	// Two machines with the same seed but different names draw different
	// jitter streams.
	m2 := NewMachine(sched, "rx", DefaultCostModel(), 42)
	same := true
	for i := 0; i < 16; i++ {
		if m.Jitter(sim.Millisecond) != m2.Jitter(sim.Millisecond) {
			same = false
		}
	}
	if same {
		t.Fatal("machines should have independent jitter streams")
	}
}

func TestNestedPreemptionStack(t *testing.T) {
	sched, cpu := newCPU()
	var order []string
	cpu.Submit(1, []Seg{
		Then(100*sim.Microsecond, func() { order = append(order, "l1a") }),
		Then(100*sim.Microsecond, func() { order = append(order, "l1b") }),
	}, nil)
	sched.After(50*sim.Microsecond, func() {
		cpu.Submit(3, []Seg{
			Then(100*sim.Microsecond, func() { order = append(order, "l3a") }),
			Then(100*sim.Microsecond, func() { order = append(order, "l3b") }),
		}, nil)
	})
	sched.After(120*sim.Microsecond, func() {
		cpu.Submit(6, []Seg{
			Then(10*sim.Microsecond, func() { order = append(order, "l6") }),
		}, nil)
	})
	sched.Run()
	want := []string{"l1a", "l3a", "l6", "l3b", "l1b"}
	if len(order) != len(want) {
		t.Fatalf("got %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("nested preemption wrong: got %v want %v", order, want)
		}
	}
	if cpu.Stats().Preemptions < 2 {
		t.Fatalf("preemption accounting: %+v", cpu.Stats())
	}
}

// TestDispatchCycleDoesNotAllocate runs the CPU's per-task path in a warm
// steady state: Submit, the dispatch kick, each segment's end event and
// onDone. With a prebuilt segment program the whole cycle must run off
// the task and event free lists without allocating.
func TestDispatchCycleDoesNotAllocate(t *testing.T) {
	sched, cpu := newCPU()
	marks, done := 0, 0
	segs := []Seg{
		Do(40 * sim.Microsecond),
		Then(60*sim.Microsecond, func() { marks++ }),
		Mark(func() { marks++ }),
	}
	onDone := func() { done++ }
	cycle := func() {
		cpu.Submit(3, segs, onDone)
		sched.Run()
	}
	// Warm past one revolution of the scheduler's timing wheel (~537 ms),
	// so every bucket slice has already grown to its steady-state size.
	for sched.Now() < 600*sim.Millisecond {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("warm Submit→dispatch→segment-end→onDone cycle allocated %v times, want 0", allocs)
	}
	if marks != 2*done {
		t.Fatalf("segment actions ran %d times for %d completed tasks", marks, done)
	}
}
