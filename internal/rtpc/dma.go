package rtpc

import "repro/internal/sim"

// DMA is one adapter's DMA engine. Transfers on the same engine are
// serialized; a transfer targeting system memory steals CPU cycles for its
// duration (registered with the machine's CPU), while a transfer targeting
// IO Channel Memory proceeds entirely on the IO Channel Bus.
type DMA struct {
	cpu     *CPU
	cost    CostModel
	busy    bool
	queue   []dmaXfer
	started uint64
	bytes   uint64
}

type dmaXfer struct {
	n      int
	target MemoryKind
	done   func()
}

// NewDMA creates a DMA engine attached to the machine's CPU for
// interference accounting.
func NewDMA(cpu *CPU, cost CostModel) *DMA {
	return &DMA{cpu: cpu, cost: cost}
}

// Busy reports whether a transfer is in progress.
func (d *DMA) Busy() bool { return d.busy }

// Transfers reports how many transfers have started.
func (d *DMA) Transfers() uint64 { return d.started }

// Bytes reports total bytes moved.
func (d *DMA) Bytes() uint64 { return d.bytes }

// Transfer moves n bytes to/from a buffer in target memory, then calls
// done. If the engine is busy the transfer queues behind earlier ones.
func (d *DMA) Transfer(n int, target MemoryKind, done func()) {
	sim.Checkf(n >= 0, "negative DMA length %d", n)
	d.queue = append(d.queue, dmaXfer{n: n, target: target, done: done})
	d.pump()
}

func (d *DMA) pump() {
	if d.busy || len(d.queue) == 0 {
		return
	}
	x := d.queue[0]
	d.queue = d.queue[1:]
	d.busy = true
	d.started++
	d.bytes += uint64(x.n)
	d.cpu.dmaStarted(x.target)
	d.cpu.Scheduler().After(d.cost.DMACost(x.n, x.target), func() {
		d.cpu.dmaEnded(x.target)
		d.busy = false
		if x.done != nil {
			x.done()
		}
		d.pump()
	})
}
