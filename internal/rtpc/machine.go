package rtpc

import "repro/internal/sim"

// Machine bundles one RT/PC: a CPU, its cost model, and a per-machine
// random stream for code-path cost jitter.
type Machine struct {
	Name string
	CPU  *CPU
	Cost CostModel

	sched *sim.Scheduler
	rng   *sim.RNG
}

// NewMachine builds a machine driven by sched. The RNG stream is derived
// from seed and the machine name, so adding a machine does not perturb
// the others.
func NewMachine(sched *sim.Scheduler, name string, cost CostModel, seed int64) *Machine {
	return &Machine{
		Name:  name,
		CPU:   NewCPU(sched, name, cost.DMASysInterference),
		Cost:  cost,
		sched: sched,
		rng:   sim.NewRNG(seed).Fork("machine/" + name),
	}
}

// Scheduler exposes the driving scheduler.
func (m *Machine) Scheduler() *sim.Scheduler { return m.sched }

// RNG exposes the machine's random stream (for code-path jitter).
func (m *Machine) RNG() *sim.RNG { return m.rng }

// NewDMA creates a DMA engine on this machine.
func (m *Machine) NewDMA() *DMA {
	return NewDMA(m.CPU, m.Cost)
}

// CopySeg builds a CPU segment that models copying n bytes between
// memories.
func (m *Machine) CopySeg(n int, src, dst MemoryKind) Seg {
	return Do(m.Cost.CopyCost(n, src, dst))
}

// copyChunkBytes slices large copies into segments of this many bytes.
// Copy loops are not critical sections: an interrupt can be taken between
// iterations, so a 2000-byte copy must not block dispatch for 2 ms. The
// chunk size is chosen so the longest copy segment (≈400 µs into IO
// Channel Memory) matches the paper's observed worst-case interrupt
// latency of 440 µs.
const copyChunkBytes = 400

// CopySegs builds a chunked, interruptible copy of n bytes.
func (m *Machine) CopySegs(n int, src, dst MemoryKind) []Seg {
	if n <= copyChunkBytes {
		return []Seg{m.CopySeg(n, src, dst)}
	}
	var segs []Seg
	for n > 0 {
		c := copyChunkBytes
		if n < c {
			c = n
		}
		n -= c
		segs = append(segs, m.CopySeg(c, src, dst))
	}
	return segs
}

// Jitter returns a small uniformly distributed code-path cost variation in
// [0, max]. Kernel code paths are not perfectly constant-time; this is the
// fine-grained spread visible in every histogram.
func (m *Machine) Jitter(max sim.Time) sim.Time {
	return m.rng.Uniform(0, max)
}
