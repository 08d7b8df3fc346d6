package rtpc

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// scanBestPending is the top-down queue scan the ready mask replaced,
// kept as the oracle for bestPending.
func scanBestPending(c *CPU) int {
	for l := NumLevels - 1; l >= 0 && l > c.mask; l-- {
		if c.pending[l].Len() > 0 {
			return l
		}
	}
	return -1
}

// checkReady asserts the ready mask mirrors the pending queues and that
// bestPending agrees with the scan.
func checkReady(t *testing.T, c *CPU, step int) {
	t.Helper()
	for l := 0; l < NumLevels; l++ {
		if set, nonEmpty := c.ready&(1<<l) != 0, c.pending[l].Len() > 0; set != nonEmpty {
			t.Fatalf("step %d: level %d ready bit %t, queue depth %d", step, l, set, c.pending[l].Len())
		}
	}
	if got, want := c.bestPending(), scanBestPending(c); got != want {
		t.Fatalf("step %d: bestPending %d, scan %d (mask %d, ready %08b)", step, got, want, c.mask, c.ready)
	}
}

// TestReadyMaskMatchesScan drives random Submit, spl and time-advance
// sequences — with actions that submit and re-mask from inside running
// segments — and checks bestPending against the queue scan at every step
// and every segment boundary.
func TestReadyMaskMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched, cpu := newCPU()
		step := 0
		submitted, done := 0, 0
		draining := false
		check := func() { step++; checkReady(t, cpu, step) }
		var submit func()
		submit = func() {
			level := rng.Intn(NumLevels)
			segs := []Seg{Do(sim.Time(rng.Intn(50)) * sim.Microsecond), Mark(check)}
			if rng.Intn(4) == 0 {
				segs = append(segs, Mark(func() {
					check()
					if submitted < 400 {
						submit()
					}
					if !draining {
						cpu.Spl(rng.Intn(NumLevels+1) - 1)
					}
					check()
				}))
			}
			submitted++
			cpu.Submit(level, segs, func() { done++ })
			check()
		}
		for i := 0; i < 300; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				submit()
			case 2:
				cpu.SplX(rng.Intn(NumLevels+1) - 1)
				check()
			default:
				sched.RunUntil(sched.Now() + sim.Time(rng.Intn(200))*sim.Microsecond)
				check()
			}
		}
		draining = true
		cpu.SplX(-1)
		sched.Run()
		check()
		if done != submitted {
			t.Fatalf("seed %d: %d of %d tasks completed", seed, done, submitted)
		}
		if cpu.ready != 0 {
			t.Fatalf("seed %d: ready mask %08b after draining", seed, cpu.ready)
		}
	}
}

// TestPreemptingDispatchCycleDoesNotAllocate is the warm dispatch cycle
// with a preemption: a level-5 task arrives while a level-2 task runs, so
// two ready bits are set and cleared per cycle, off the free lists.
func TestPreemptingDispatchCycleDoesNotAllocate(t *testing.T) {
	sched, cpu := newCPU()
	hi := []Seg{Do(10 * sim.Microsecond)}
	lo := []Seg{
		Then(40*sim.Microsecond, func() { cpu.Submit(5, hi, nil) }),
		Do(40 * sim.Microsecond),
	}
	cycle := func() {
		cpu.Submit(2, lo, nil)
		sched.Run()
	}
	cycle()
	before := cpu.Stats().Preemptions
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("warm preempting dispatch cycle allocated %v times, want 0", allocs)
	}
	if got := cpu.Stats().Preemptions - before; got != 201 {
		t.Fatalf("%d preemptions over 201 cycles", got)
	}
	if cpu.ready != 0 {
		t.Fatalf("ready mask %08b after the cycles drained", cpu.ready)
	}
}
