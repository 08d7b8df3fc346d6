package core

import (
	"repro/internal/kernel"
	"repro/internal/measure"
	"repro/internal/playout"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/vca"
)

// stockRelay is the §2 user-level relay: a process that reads packets
// from the source device and writes them to a socket (transmit side), or
// reads from the socket and writes to the presentation device (receive
// side). Every packet crosses the user/kernel boundary twice per machine,
// which is exactly the pair of copies the paper eliminates: a read
// syscall whose body copies at readRate per byte, then a write syscall at
// writeRate, after which deliver hands the item on.
type stockRelay struct {
	k     *kernel.Kernel
	proc  *kernel.Proc
	queue sim.FIFO[stockItem]
	// queueCap models the source device's on-card buffer: the VCA can
	// hold DeviceBufferBytes; anything beyond that is overwritten.
	queueCap int
	// readRate and writeRate are the two copies' per-byte costs.
	//
	//ctmsvet:unit s/byte
	readRate sim.Time
	//ctmsvet:unit s/byte
	writeRate sim.Time
	deliver   func(stockItem)

	// The relay serves one item at a time (busy), so the item in service
	// and the steps that read it are fields built once, not per item.
	busy        bool
	cur         stockItem
	write, done func()

	enqueued uint64
	dropped  uint64
}

type stockItem struct {
	num   uint32
	bytes int
	at    sim.Time
}

//ctmsvet:unit s/byte readRate
//ctmsvet:unit s/byte writeRate
func newStockRelay(k *kernel.Kernel, name string, queueCap int, readRate, writeRate sim.Time, deliver func(stockItem)) *stockRelay {
	sim.Checkf(queueCap >= 1, "relay needs at least one buffer slot")
	r := &stockRelay{k: k, proc: k.NewProc(name), queueCap: queueCap, readRate: readRate, writeRate: writeRate, deliver: deliver}
	r.write = func() { r.proc.Syscall(sim.PerByte(r.writeRate, r.cur.bytes), r.done) }
	r.done = func() {
		r.deliver(r.cur)
		r.busy = false
		// With nothing pending the process sleeps in read().
		r.kick()
	}
	return r
}

// push is called at interrupt level when a packet is ready. Returns false
// if the device buffer overflowed and the packet was lost.
func (r *stockRelay) push(item stockItem) bool {
	if r.queue.Len() >= r.queueCap {
		r.dropped++
		return false
	}
	r.queue.Push(item)
	r.enqueued++
	r.proc.Wakeup()
	r.kick()
	return true
}

func (r *stockRelay) kick() {
	if r.busy || r.queue.Len() == 0 {
		return
	}
	r.busy = true
	r.cur = r.queue.Pop()
	r.proc.Syscall(sim.PerByte(r.readRate, r.cur.bytes), r.write)
}

// stockIRQ carries one VCA interrupt's packet number through the stock
// interrupt program, whose two actions are built once per pooled record.
// The record returns to the pool when the program's last action runs.
type stockIRQ struct {
	num         uint32
	entry, push func()
}

// runStock executes the unmodified-UNIX baseline of §1.
func runStock(e *env) *Results {
	cfg := e.cfg
	txK, rxK := e.txDrv.Kernel(), e.rxDrv.Kernel()

	txStack, rxStack := e.stacks()
	conn := txStack.RDTOpen(rxStack.Addr())
	rconn := rxStack.RDTOpen(txStack.Addr())

	streamBytesPerSec := float64(cfg.PacketBytes) / cfg.Interval.Seconds()
	play := playout.New(streamBytesPerSec, cfg.PlayoutPrebuffer)

	queueCap := vca.DeviceBufferBytes / cfg.PacketBytes
	if queueCap < 1 {
		queueCap = 1
	}

	var sent, delivered uint64

	// Transmit relay: read(vca) → write(socket).
	txRelay := newStockRelay(txK, "relay-tx", queueCap, rtpc.CPUCopyUser, rtpc.CPUCopyUser, func(item stockItem) {
		e.record(measure.P3PreTransmit, item.num)
		conn.Send(item.num, item.bytes, nil)
	})

	// The VCA interrupt on the stock path: DMA buffer → mbuf copy at
	// interrupt level, then wake the relay. The program is built in one
	// scratch slice (Submit copies it).
	dev := vca.NewDevice(txK)
	dev.SetPeriod(cfg.Interval)
	var irqs sim.FreeList[stockIRQ]
	var prog []rtpc.Seg
	irq := func(n uint64) {
		in := irqs.Get()
		if in == nil {
			in = &stockIRQ{}
			in.entry = func() { e.record(measure.P2HandlerEntry, in.num) }
			in.push = func() {
				num := in.num
				irqs.Put(in)
				sent++
				txRelay.push(stockItem{num: num, bytes: cfg.PacketBytes, at: e.sched.Now()})
			}
		}
		in.num = uint32(n)
		e.record(measure.P1VCAIRQ, in.num)
		prog = append(prog[:0],
			rtpc.Do(vca.DispatchCost),
			rtpc.Mark(in.entry),
			txK.Machine.CopySeg(cfg.PacketBytes, rtpc.SystemMemory, rtpc.SystemMemory),
			rtpc.Mark(in.push),
		)
		txK.CPU().Submit(kernel.LevelVCA, prog, nil)
	}

	// Receive relay: read(socket) → write(vca device).
	rxRelay := newStockRelay(rxK, "relay-rx", 64, rtpc.CPUCopyUser, rtpc.CPUCopyDevice, func(item stockItem) {
		delivered++
		e.record(measure.P4RxClassified, item.num)
		play.Deliver(item.bytes, e.sched.Now())
	})

	// Transport delivery reassembles MTU segments into packets.
	pending := make(map[uint32]int)
	rconn.OnDeliver(func(num uint32, n int, at sim.Time) {
		pending[num] += n
		if pending[num] >= cfg.PacketBytes {
			delete(pending, num)
			rxRelay.push(stockItem{num: num, bytes: cfg.PacketBytes, at: at})
		}
	})

	// Wire the interrupt action directly (the stock driver does not use
	// the CTMSP driver-to-driver path).
	dev.SetIRQ(irq)

	r := e.finish(dev)
	r.Playout = play.Finish(cfg.Duration)
	r.Sent = sent
	r.Delivered = delivered
	r.RxStats.Received = delivered
	r.RxStats.InOrder = delivered
	if sent > delivered {
		r.RxStats.Lost = sent - delivered
	}
	// Source-side drops are the dominant stock-path failure.
	r.RxStats.Gaps = txRelay.dropped
	return r
}
