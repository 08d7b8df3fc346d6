package core

import (
	"repro/internal/kernel"
	"repro/internal/measure"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/vca"
)

// stockRelay is the §2 user-level relay: a process that reads packets
// from the source device and writes them to a socket (transmit side), or
// reads from the socket and writes to the presentation device (receive
// side). Every packet crosses the user/kernel boundary twice per machine,
// which is exactly the pair of copies the paper eliminates.
type stockRelay struct {
	k     *kernel.Kernel
	proc  *kernel.Proc
	queue []stockItem
	// queueCap models the source device's on-card buffer: the VCA can
	// hold DeviceBufferBytes; anything beyond that is overwritten.
	queueCap int
	busy     bool
	consume  func(item stockItem, done func())

	enqueued uint64
	dropped  uint64
}

type stockItem struct {
	num   uint32
	bytes int
	at    sim.Time
}

func newStockRelay(k *kernel.Kernel, name string, queueCap int, consume func(stockItem, func())) *stockRelay {
	sim.Checkf(queueCap >= 1, "relay needs at least one buffer slot")
	return &stockRelay{k: k, proc: k.NewProc(name), queueCap: queueCap, consume: consume}
}

// push is called at interrupt level when a packet is ready. Returns false
// if the device buffer overflowed and the packet was lost.
func (r *stockRelay) push(item stockItem) bool {
	if len(r.queue) >= r.queueCap {
		r.dropped++
		return false
	}
	r.queue = append(r.queue, item)
	r.enqueued++
	r.proc.Wakeup()
	r.kick()
	return true
}

func (r *stockRelay) kick() {
	if r.busy || len(r.queue) == 0 {
		return
	}
	r.busy = true
	item := r.queue[0]
	r.queue = r.queue[1:]
	r.consume(item, func() {
		r.busy = false
		if len(r.queue) > 0 {
			r.kick()
			return
		}
		// Nothing pending: the process sleeps in read().
	})
}

// runStock executes the unmodified-UNIX baseline of §1.
func runStock(cfg Config) (*Results, error) {
	e := buildEnv(cfg)

	txStack := e.stack(e.txK, e.txDrv)
	rxStack := e.stack(e.rxK, e.rxDrv)
	conn := txStack.RDTOpen(rxStack.Addr())
	rconn := rxStack.RDTOpen(txStack.Addr())

	streamBytesPerSec := float64(cfg.PacketBytes) / cfg.Interval.Seconds()
	playout := NewPlayout(streamBytesPerSec, cfg.PlayoutPrebuffer)

	queueCap := vca.DeviceBufferBytes / cfg.PacketBytes
	if queueCap < 1 {
		queueCap = 1
	}

	var sent uint64
	cost := e.txK.Machine.Cost

	// Transmit relay: read(vca) → write(socket).
	txRelay := newStockRelay(e.txK, "relay-tx", queueCap, nil)
	txRelay.consume = func(item stockItem, done func()) {
		p := txRelay.proc
		copyCost := sim.PerByte(cost.CPUCopyUser, item.bytes)
		p.Syscall(copyCost, func() {
			p.Syscall(copyCost, func() {
				e.record(measure.P3PreTransmit, item.num)
				conn.Send(item.num, item.bytes, nil)
				done()
			})
		})
	}

	// The VCA interrupt on the stock path: DMA buffer → mbuf copy at
	// interrupt level, then wake the relay.
	dev := vca.NewDevice(e.txK)
	stockIRQ := func(n uint64) {
		num := uint32(n)
		e.record(measure.P1VCAIRQ, num)
		segs := []rtpc.Seg{
			rtpc.Do(28 * sim.Microsecond), // interrupt dispatch
			rtpc.Mark(func() { e.record(measure.P2HandlerEntry, num) }),
			e.txK.Machine.CopySeg(cfg.PacketBytes, rtpc.SystemMemory, rtpc.SystemMemory),
			rtpc.Mark(func() {
				sent++
				txRelay.push(stockItem{num: num, bytes: cfg.PacketBytes, at: e.sched.Now()})
			}),
		}
		e.txK.CPU().Submit(kernel.LevelVCA, segs, nil)
	}

	// Receive relay: read(socket) → write(vca device).
	var delivered uint64
	rxRelay := newStockRelay(e.rxK, "relay-rx", 64, nil)
	rxRelay.consume = func(item stockItem, done func()) {
		p := rxRelay.proc
		copyCost := sim.PerByte(cost.CPUCopyUser, item.bytes)
		devCost := sim.PerByte(cost.CPUCopyDevice, item.bytes)
		p.Syscall(copyCost, func() {
			p.Syscall(devCost, func() {
				delivered++
				e.record(measure.P4RxClassified, item.num)
				playout.Deliver(item.bytes, e.sched.Now())
				done()
			})
		})
	}

	// Transport delivery reassembles MTU segments into packets.
	pending := make(map[uint32]int)
	rconn.OnDeliver(func(payload any, n int, at sim.Time) {
		num, ok := payload.(uint32)
		if !ok {
			return
		}
		pending[num] += n
		if pending[num] >= cfg.PacketBytes {
			delete(pending, num)
			rxRelay.push(stockItem{num: num, bytes: cfg.PacketBytes, at: at})
		}
	})

	// Wire the interrupt action directly (the stock driver does not use
	// the CTMSP driver-to-driver path).
	dev.SetIRQ(stockIRQ)

	e.addBackground()
	dev.Start()
	e.sched.RunUntil(cfg.Duration)
	dev.Stop()
	e.stopGens()

	r := &Results{
		Config:     cfg,
		Elapsed:    cfg.Duration,
		Hists:      measure.BuildHistograms(e.rec, cfg.HistogramBinWidth),
		Truth:      measure.BuildHistograms(e.truth, cfg.HistogramBinWidth),
		Sent:       sent,
		Delivered:  delivered,
		Playout:    playout.Finish(cfg.Duration),
		Ring:       e.ring.Counters(),
		TAP:        e.tap.Stats(),
		TapMonitor: e.tap,
		TxDriver:   e.txDrv.Stats(),
		TxCPUUtil:  float64(e.txK.CPU().Stats().BusyTime) / float64(cfg.Duration),
		RxCPUUtil:  float64(e.rxK.CPU().Stats().BusyTime) / float64(cfg.Duration),
		Copies:     CopiesFor(cfg),
	}
	r.RxStats.Received = delivered
	r.RxStats.InOrder = delivered
	if sent > delivered {
		r.RxStats.Lost = sent - delivered
	}
	// Source-side drops are the dominant stock-path failure.
	r.RxStats.Gaps = txRelay.dropped
	return r, nil
}
