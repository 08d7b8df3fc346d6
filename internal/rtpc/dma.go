package rtpc

import "repro/internal/sim"

// DMA is one adapter's DMA engine. Transfers on the same engine are
// serialized; a transfer targeting system memory steals CPU cycles for its
// duration (registered with the machine's CPU), while a transfer targeting
// IO Channel Memory proceeds entirely on the IO Channel Bus.
type DMA struct {
	cpu     *CPU
	busy    bool
	queue   sim.FIFO[dmaXfer]
	started uint64
	bytes   uint64

	// Only one transfer is in flight per engine (busy), so its end event
	// reuses one callback reading cur, like CPU.segEnd, built on the
	// engine's first transfer.
	cur   dmaXfer
	endFn func()
}

type dmaXfer struct {
	n      int
	target MemoryKind
	done   func()
}

// NewDMA creates a DMA engine attached to the machine's CPU for
// interference accounting.
func NewDMA(cpu *CPU) *DMA {
	return &DMA{cpu: cpu}
}

// Transfers reports how many transfers have started.
func (d *DMA) Transfers() uint64 { return d.started }

// Bytes reports total bytes moved.
func (d *DMA) Bytes() uint64 { return d.bytes }

// Transfer moves n bytes to/from a buffer in target memory, then calls
// done. If the engine is busy the transfer queues behind earlier ones.
func (d *DMA) Transfer(n int, target MemoryKind, done func()) {
	if n < 0 {
		sim.Checkf(false, "negative DMA length %d", n)
	}
	d.queue.Push(dmaXfer{n: n, target: target, done: done})
	d.pump()
}

func (d *DMA) pump() {
	if d.busy || d.queue.Len() == 0 {
		return
	}
	x := d.queue.Pop()
	d.busy = true
	d.started++
	d.bytes += uint64(x.n)
	d.cpu.dmaStarted(x.target)
	d.cur = x
	if d.endFn == nil {
		d.endFn = d.end
	}
	d.cpu.Scheduler().After(DMACost(x.n, x.target), d.endFn)
}

// end completes the in-flight transfer and starts the next queued one.
func (d *DMA) end() {
	x := d.cur
	d.cur = dmaXfer{}
	d.cpu.dmaEnded(x.target)
	d.busy = false
	if x.done != nil {
		x.done()
	}
	d.pump()
}
