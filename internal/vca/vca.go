// Package vca models IBM's Voice Communications Adapter as the paper
// uses it: a TI32010 DSP programmed to interrupt the host every 12 ms
// with no detectable variation (§5.2.2 verified ±500 ns with a logic
// analyzer; we model it as exact and attribute all observed spread to the
// host side, as the paper does), a 2K×16 on-card buffer reachable through
// a byte-wide interface, and the device driver modifications of §5.1:
// ioctls that set up the special mode, fetch and keep the precomputed
// Token Ring header, and obtain the direct driver-to-driver handles.
package vca

import (
	"fmt"

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

// Ticks reports how many interrupts have fired.
func (d *Device) Ticks() uint64 { return d.ticks }

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
	// DispatchCost is the hardware vectoring and register-save time
	// between the IRQ edge and the first handler instruction; the
	// measured minimum of the points 1→2 delta.
	DispatchCost sim.Time
	// EntryCost, AllocCost, StampCost are the handler code segments;
	// their sum plus the driver entry is the ~600 µs of non-copy latency
	// §5.3 attributes to "execution of the code between the two points".
	EntryCost, AllocCost, StampCost sim.Time
	// EntryJitterMax adds per-interrupt code-path variation.
	EntryJitterMax sim.Time
}

// DefaultTxConfig returns the calibrated transmit driver configuration.
func DefaultTxConfig() TxConfig {
	return TxConfig{
		DataBytes:      2000 - ctmsp.HeaderSize,
		DispatchCost:   28 * sim.Microsecond,
		EntryCost:      180 * sim.Microsecond,
		AllocCost:      150 * sim.Microsecond,
		StampCost:      80 * sim.Microsecond,
		EntryJitterMax: 30 * sim.Microsecond,
	}
}

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
	dev  *Device
	conn *ctmsp.Conn
	out  func(*tradapter.Outgoing) // handle obtained by ioctl
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

	stats TxStats
}

// DriverName implements kernel.Driver.
func (t *TxDriver) DriverName() string { return "vca0" }

// Ioctl implements the special-mode setup commands of §5.1.
func (t *TxDriver) Ioctl(cmd string, arg any) (any, error) {
	switch cmd {
	case "get-stats":
		return t.stats, nil
	case "set-max-outstanding":
		n, ok := arg.(int)
		if !ok {
			return nil, fmt.Errorf("vca0: set-max-outstanding wants an int")
		}
		t.MaxOutstanding = n
		return nil, nil
	default:
		return nil, fmt.Errorf("vca0: unknown ioctl %q", cmd)
	}
}

// NewTxDriver wires the VCA device to a CTMSP connection. It performs the
// paper's setup: the CTMSP connection already holds the precomputed ring
// header; the driver fetches the TR driver's output handle by ioctl and
// hard-codes the call into its interrupt handler.
func NewTxDriver(k *kernel.Kernel, dev *Device, conn *ctmsp.Conn, cfg TxConfig) (*TxDriver, error) {
	h, err := k.Ioctl("tr0", "get-output-handle", nil)
	if err != nil {
		return nil, fmt.Errorf("vca: %w", err)
	}
	t := &TxDriver{k: k, dev: dev, conn: conn, out: h.(func(*tradapter.Outgoing)), cfg: cfg}
	dev.irq = t.interrupt
	k.Register(t)
	return t, nil
}

// Stats returns a snapshot of transmit accounting.
func (t *TxDriver) Stats() TxStats { return t.stats }

// interrupt is the VCA interrupt: it runs the handler at the VCA's
// interrupt level. The delay from here to the handler's first segment is
// measurement points 1→2 (histogram 5).
func (t *TxDriver) interrupt(tick uint64) {
	t.stats.Interrupts++
	m := t.k.Machine
	segs := []rtpc.Seg{
		rtpc.Do(t.cfg.DispatchCost),
		rtpc.Mark(func() {
			if t.OnHandlerEntry != nil {
				t.OnHandlerEntry(tick, t.k.Sched().Now())
			}
		}),
		rtpc.Do(t.cfg.EntryCost + m.Jitter(t.cfg.EntryJitterMax)),
	}
	if t.cfg.CopyVCAToMbufs {
		segs = append(segs, m.CopySeg(t.cfg.DataBytes, rtpc.DeviceMemory, rtpc.SystemMemory))
	}
	segs = append(segs,
		rtpc.Do(t.cfg.AllocCost),
		rtpc.Then(t.cfg.StampCost, func() { t.buildAndSend() }),
	)
	t.k.CPU().Submit(kernel.LevelVCA, segs, nil)
}

func (t *TxDriver) buildAndSend() {
	if t.MaxOutstanding > 0 && t.outstanding >= t.MaxOutstanding {
		t.stats.QueueDrops++
		return
	}
	var num uint32
	pkt := t.conn.BuildPacket(t.cfg.DataBytes, t.cfg.CopyHeaderOnly,
		func() {
			if t.OnPreTransmit != nil {
				t.OnPreTransmit(num, t.k.Sched().Now())
			}
		},
		func(s ring.DeliveryStatus) {
			t.outstanding--
			t.stats.PacketsSent++
			if t.OnTxDone != nil {
				t.OnTxDone(num, s)
			}
		},
	)
	if pkt == nil {
		t.stats.MbufDrops++
		return
	}
	num = pkt.Chain.Tag.(ctmsp.Header).PacketNum
	t.outstanding++
	chain := pkt.Chain
	oldDone := pkt.Done
	pkt.Done = func(s ring.DeliveryStatus) {
		t.k.Pool.Free(chain)
		oldDone(s)
	}
	if t.PatchOutgoing != nil {
		t.PatchOutgoing(pkt)
	}
	t.out(pkt)
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
	// ExamineCost is the in-place inspection cost when CopyToMbufs is
	// off.
	ExamineCost sim.Time
}

// DefaultRxConfigB returns Test Case B's receive path: full copying.
func DefaultRxConfigB() RxConfig {
	return RxConfig{CopyToMbufs: true, CopyToDevice: true, ExamineCost: 40 * sim.Microsecond}
}

// DefaultRxConfigA returns Test Case A's receive path: copy into mbufs
// but drop instead of feeding the device.
func DefaultRxConfigA() RxConfig {
	return RxConfig{CopyToMbufs: true, CopyToDevice: false, ExamineCost: 40 * sim.Microsecond}
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

	stats RxStats
}

// NewRxDriver installs the receive driver on the TR driver's split point.
func NewRxDriver(k *kernel.Kernel, trdrv *tradapter.Driver, recv *ctmsp.Receiver, cfg RxConfig) *RxDriver {
	r := &RxDriver{k: k, cfg: cfg, recv: recv}
	trdrv.SetHandler(tradapter.ClassCTMSP, r.handle)
	return r
}

// Stats returns a snapshot of receive accounting.
func (r *RxDriver) Stats() RxStats { return r.stats }

// handle runs at the split point, inside the receive interrupt.
func (r *RxDriver) handle(rcv *tradapter.Received) []rtpc.Seg {
	out, ok := rcv.Frame.Payload.(*tradapter.Outgoing)
	if !ok {
		r.stats.BadHeader++
		rcv.Release()
		return nil
	}
	h, ok := out.Chain.Tag.(ctmsp.Header)
	if !ok {
		r.stats.BadHeader++
		rcv.Release()
		return nil
	}
	r.stats.Classified++
	if r.OnClassified != nil {
		r.OnClassified(h, rcv.At)
	}

	m := r.k.Machine
	var segs []rtpc.Seg
	if r.cfg.CopyToMbufs {
		segs = append(segs, m.CopySegs(rcv.Size, rcv.Buffer.Kind, rtpc.SystemMemory)...)
		segs = append(segs, rtpc.Mark(rcv.Release))
	} else {
		segs = append(segs,
			rtpc.Do(r.cfg.ExamineCost),
			rtpc.Mark(rcv.Release),
		)
	}
	if r.cfg.CopyToDevice {
		segs = append(segs, m.CopySegs(rcv.Size-ctmsp.HeaderSize, rtpc.SystemMemory, rtpc.DeviceMemory)...)
	}
	segs = append(segs, rtpc.Mark(func() {
		ev := r.recv.Accept(h, r.k.Sched().Now())
		r.stats.Delivered++
		if r.OnDelivered != nil {
			r.OnDelivered(h, r.k.Sched().Now(), ev)
		}
	}))
	return segs
}
