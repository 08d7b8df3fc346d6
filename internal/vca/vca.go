// Package vca models IBM's Voice Communications Adapter as the paper
// uses it: a TI32010 DSP programmed to interrupt the host every 12 ms
// with no detectable variation (§5.2.2 verified ±500 ns with a logic
// analyzer; we model it as exact and attribute all observed spread to the
// host side, as the paper does), a 2K×16 on-card buffer reachable through
// a byte-wide interface, and the device driver modifications of §5.1: a
// special mode that keeps the connection's precomputed Token Ring header
// and hands each packet straight to the Token Ring driver. The paper sets
// this up with one-time ioctls; in the model they are direct calls, at no
// simulated cost.
package vca

import (
	"repro/internal/ctmsp"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// Interval is the DSP's programmed interrupt period.
const Interval = 12 * sim.Millisecond

// DeviceBufferBytes is the on-card memory (2K × 16 bits).
const DeviceBufferBytes = 4096

// Device is the adapter hardware: a perfectly regular interrupt source.
type Device struct {
	k      *kernel.Kernel
	rep    *sim.Repeater
	period sim.Time
	ticks  uint64
	// OnIRQ observes the exact hardware interrupt edge — measurement
	// point 1, which only the logic analyzer can see directly.
	OnIRQ func(tick uint64, at sim.Time)
	// irq is the host-side interrupt action installed by the driver.
	irq func(tick uint64)
}

// NewDevice creates the adapter on machine k with the paper's 12 ms
// interrupt period.
func NewDevice(k *kernel.Kernel) *Device {
	return &Device{k: k, period: Interval}
}

// SetPeriod reprograms the DSP's interrupt period (the session layer runs
// streams of different rates). Must be called before Start.
func (d *Device) SetPeriod(t sim.Time) {
	sim.Checkf(d.rep == nil, "cannot reprogram a running VCA")
	sim.Checkf(t > 0, "VCA period must be positive")
	d.period = t
}

// Start programs the DSP to begin interrupting every period.
func (d *Device) Start() {
	sim.Checkf(d.rep == nil, "VCA already started")
	d.rep = d.k.Sched().Every(d.period, func() {
		tick := d.ticks
		d.ticks++
		if d.OnIRQ != nil {
			d.OnIRQ(tick, d.k.Sched().Now())
		}
		if d.irq != nil {
			d.irq(tick)
		}
	})
}

// Stop halts the DSP timer.
func (d *Device) Stop() {
	if d.rep != nil {
		d.rep.Stop()
		d.rep = nil
	}
}

// SetIRQ installs the host-side interrupt action. NewTxDriver does this
// for the CTMS path; alternative drivers (the stock relay) install their
// own handler here.
func (d *Device) SetIRQ(fn func(tick uint64)) { d.irq = fn }

// TxConfig selects the transmit-side driver variants of §5.3.
type TxConfig struct {
	// DataBytes is the payload appended after the CTMSP header; the
	// paper uses packets of 2000 bytes total.
	DataBytes int
	// CopyHeaderOnly copies only the header into the fixed DMA buffer.
	CopyHeaderOnly bool
	// CopyVCAToMbufs copies the data out of the VCA device buffer into
	// mbufs over the byte-wide interface (the paper's tests append
	// synthetic data instead, leaving this off).
	CopyVCAToMbufs bool
}

// DefaultTxConfig returns the transmit driver of the paper's tests:
// 2000-byte packets, the data appended in place.
func DefaultTxConfig() TxConfig {
	return TxConfig{DataBytes: 2000 - ctmsp.HeaderSize}
}

// The transmit handler's calibrated costs.
const (
	// DispatchCost is the hardware vectoring and register-save time
	// between the IRQ edge and the first handler instruction; the
	// measured minimum of the points 1→2 delta.
	DispatchCost = 28 * sim.Microsecond
	// EntryCost, AllocCost and StampCost are the handler code segments;
	// their sum plus the driver entry is the ~600 µs of non-copy latency
	// §5.3 attributes to "execution of the code between the two points".
	EntryCost = 180 * sim.Microsecond
	AllocCost = 150 * sim.Microsecond
	StampCost = 80 * sim.Microsecond
	// EntryJitterMax adds per-interrupt code-path variation.
	EntryJitterMax = 30 * sim.Microsecond
)

// TxStats aggregates transmit-driver accounting.
type TxStats struct {
	Interrupts  uint64
	PacketsSent uint64
	MbufDrops   uint64
	QueueDrops  uint64
}

// TxDriver is the VCA driver configured as the CTMS data source: its
// interrupt handler builds a CTMSP packet and hands it directly to the
// Token Ring driver — the §2 driver-to-driver path, no user process.
type TxDriver struct {
	k    *kernel.Kernel
	conn *ctmsp.Conn
	tr   *tradapter.Driver // the §2 driver-to-driver call goes to tr.Output
	cfg  TxConfig

	// Probes for the measurement tools.
	OnHandlerEntry func(tick uint64, at sim.Time)      // point 2
	OnPreTransmit  func(packetNum uint32, at sim.Time) // point 3
	OnTxDone       func(packetNum uint32, s ring.DeliveryStatus)
	// PatchOutgoing, if set, may modify each packet before it is handed
	// to the Token Ring driver (used for the pointer-transfer ablation).
	PatchOutgoing func(*tradapter.Outgoing)

	// MaxOutstanding bounds packets queued in the TR driver before the
	// handler starts dropping (device-level flow control). Zero means
	// unlimited.
	MaxOutstanding int
	outstanding    int

	// Per-interrupt and per-packet state lives in pooled records whose
	// actions are built once, and the handler program is assembled in
	// one scratch slice (Submit copies it).
	prog  []rtpc.Seg
	intrs sim.FreeList[txIntr]
	sends sim.FreeList[txSend]

	stats TxStats
}

// txIntr carries one interrupt's tick to the handler-entry probe, with
// the handler's two actions prebuilt. It returns to the pool when the
// handler's last action runs.
type txIntr struct {
	tick  uint64
	entry func()
	send  func()
}

// txSend is one packet from construction until its envelope is dead: the
// envelope itself, with a permanent chain shell and the probe, completion
// and recycle callbacks, the header's capture bytes, and the packet number
// for the probes. The record returns to the pool only through the
// envelope's two-phase recycle (transmit complete and receive handler
// returned), so no frame still in flight ever sees it reused.
type txSend struct {
	out     tradapter.Outgoing
	capture [ctmsp.HeaderSize]byte
	num     uint32
	recycle func(*tradapter.Outgoing)
}

// NewTxDriver wires the VCA device on tr's machine to a CTMSP connection.
// It performs the paper's set-up as direct calls, at no simulated cost:
// the connection already holds the precomputed ring header, and the
// interrupt handler hands each packet straight to tr's Output.
func NewTxDriver(dev *Device, tr *tradapter.Driver, conn *ctmsp.Conn, cfg TxConfig) *TxDriver {
	t := &TxDriver{k: tr.Kernel(), conn: conn, tr: tr, cfg: cfg}
	dev.irq = t.interrupt
	return t
}

// Stats returns a snapshot of transmit accounting.
func (t *TxDriver) Stats() TxStats { return t.stats }

// interrupt is the VCA interrupt: it runs the handler at the VCA's
// interrupt level. The delay from here to the handler's first segment is
// measurement points 1→2 (histogram 5).
func (t *TxDriver) interrupt(tick uint64) {
	t.stats.Interrupts++
	m := t.k.Machine
	in := t.getIntr()
	in.tick = tick
	segs := append(t.prog[:0],
		rtpc.Do(DispatchCost),
		rtpc.Mark(in.entry),
		rtpc.Do(EntryCost+m.Jitter(EntryJitterMax)),
	)
	if t.cfg.CopyVCAToMbufs {
		segs = append(segs, m.CopySeg(t.cfg.DataBytes, rtpc.DeviceMemory, rtpc.SystemMemory))
	}
	segs = append(segs,
		rtpc.Do(AllocCost),
		rtpc.Then(StampCost, in.send),
	)
	t.prog = segs
	t.k.CPU().Submit(kernel.LevelVCA, segs, nil)
}

// getIntr pops a free interrupt record, building one (with its permanent
// actions) on the cold path only.
func (t *TxDriver) getIntr() *txIntr {
	if in := t.intrs.Get(); in != nil {
		return in
	}
	in := &txIntr{}
	in.entry = func() {
		if t.OnHandlerEntry != nil {
			t.OnHandlerEntry(in.tick, t.k.Sched().Now())
		}
	}
	in.send = func() {
		t.intrs.Put(in)
		t.buildAndSend()
	}
	return in
}

// getSend pops a free packet record, building one (with its envelope's
// permanent chain shell and callbacks) on the cold path only.
func (t *TxDriver) getSend() *txSend {
	if sd := t.sends.Get(); sd != nil {
		return sd
	}
	sd := &txSend{}
	sd.out.Chain = &kernel.Chain{}
	sd.out.PreTransmit = func() {
		if t.OnPreTransmit != nil {
			t.OnPreTransmit(sd.num, t.k.Sched().Now())
		}
	}
	sd.out.Done = func(s ring.DeliveryStatus) {
		t.k.Pool.Free(sd.out.Chain)
		t.outstanding--
		t.stats.PacketsSent++
		if t.OnTxDone != nil {
			t.OnTxDone(sd.num, s)
		}
	}
	sd.recycle = func(*tradapter.Outgoing) { t.sends.Put(sd) }
	return sd
}

func (t *TxDriver) buildAndSend() {
	if t.MaxOutstanding > 0 && t.outstanding >= t.MaxOutstanding {
		t.stats.QueueDrops++
		return
	}
	sd := t.getSend()
	h, ok := t.conn.BuildPacket(&sd.out, &sd.capture, t.cfg.DataBytes, t.cfg.CopyHeaderOnly)
	if !ok {
		t.sends.Put(sd)
		t.stats.MbufDrops++
		return
	}
	sd.num = h.PacketNum
	sd.out.SetRecycle(sd.recycle)
	t.outstanding++
	if t.PatchOutgoing != nil {
		t.PatchOutgoing(&sd.out)
	}
	t.tr.Output(&sd.out)
}

// RxConfig selects the receive-side driver variants of §5.3.
type RxConfig struct {
	// CopyToMbufs copies the packet from the fixed rx DMA buffer into
	// mbufs before the VCA examines it; off means the VCA examines the
	// packet in place.
	CopyToMbufs bool
	// CopyToDevice copies the data out of mbufs into the VCA device
	// buffer; off means the data is dropped after accounting.
	CopyToDevice bool
}

// ExamineCost is the in-place inspection cost when CopyToMbufs is off.
const ExamineCost = 40 * sim.Microsecond

// DefaultRxConfigB returns Test Case B's receive path: full copying.
func DefaultRxConfigB() RxConfig {
	return RxConfig{CopyToMbufs: true, CopyToDevice: true}
}

// RxStats aggregates receive-driver accounting.
type RxStats struct {
	Classified uint64
	Delivered  uint64
	BadHeader  uint64
}

// RxDriver is the VCA driver configured as the CTMS sink on the receiving
// machine. It installs itself at the Token Ring driver's CTMSP split
// point; classification time there is measurement point 4.
type RxDriver struct {
	k    *kernel.Kernel
	cfg  RxConfig
	recv *ctmsp.Receiver

	// OnClassified observes measurement point 4.
	OnClassified func(h ctmsp.Header, at sim.Time)
	// OnDelivered fires when the configured copy path completes and the
	// packet's data has reached (or been dropped on behalf of) the
	// presentation device.
	OnDelivered func(h ctmsp.Header, at sim.Time, ev ctmsp.Event)

	prog    []rtpc.Seg // receive program scratch; the driver copies it
	accepts sim.FreeList[rxAccept]

	stats RxStats
}

// rxAccept carries one packet's header to the final delivery mark, which
// is prebuilt; the record returns to the pool when the mark runs.
type rxAccept struct {
	h  ctmsp.Header
	fn func()
}

// NewRxDriver installs the receive driver on the TR driver's split point,
// running on the TR driver's machine.
func NewRxDriver(trdrv *tradapter.Driver, recv *ctmsp.Receiver, cfg RxConfig) *RxDriver {
	r := &RxDriver{k: trdrv.Kernel(), cfg: cfg, recv: recv}
	trdrv.SetHandler(tradapter.ClassCTMSP, r.handle)
	return r
}

// Stats returns a snapshot of receive accounting.
func (r *RxDriver) Stats() RxStats { return r.stats }

// handle runs at the split point, inside the receive interrupt. It reads
// the CTMSP header from the packet's own bytes: the magic check is the
// "shortest possible test" of measurement point 4.
func (r *RxDriver) handle(rcv *tradapter.Received) []rtpc.Seg {
	h, err := ctmsp.DecodeHeader(rcv.Frame.Capture)
	if err != nil {
		r.stats.BadHeader++
		rcv.Release()
		return nil
	}
	r.stats.Classified++
	if r.OnClassified != nil {
		r.OnClassified(h, rcv.At)
	}

	m := r.k.Machine
	size := rcv.Size
	segs := r.prog[:0]
	if r.cfg.CopyToMbufs {
		segs = m.CopySegs(segs, size, rcv.Buffer.Kind, rtpc.SystemMemory)
		segs = append(segs, rcv.ReleaseSeg())
	} else {
		segs = append(segs,
			rtpc.Do(ExamineCost),
			rcv.ReleaseSeg(),
		)
	}
	if r.cfg.CopyToDevice {
		segs = m.CopySegs(segs, size-ctmsp.HeaderSize, rtpc.SystemMemory, rtpc.DeviceMemory)
	}
	a := r.getAccept()
	a.h = h
	segs = append(segs, rtpc.Mark(a.fn))
	r.prog = segs
	return segs
}

// getAccept pops a free delivery record, building one (with its permanent
// mark) on the cold path only.
func (r *RxDriver) getAccept() *rxAccept {
	if a := r.accepts.Get(); a != nil {
		return a
	}
	a := &rxAccept{}
	a.fn = func() {
		h := a.h
		r.accepts.Put(a)
		ev := r.recv.Accept(h, r.k.Sched().Now())
		r.stats.Delivered++
		if r.OnDelivered != nil {
			r.OnDelivered(h, r.k.Sched().Now(), ev)
		}
	}
	return a
}
