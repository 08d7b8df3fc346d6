package vca

import (
	"testing"

	"repro/internal/ctmsp"
	"repro/internal/kernel"
	"repro/internal/measure"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// rig is a full transmitter+receiver pair wired like the prototype.
type rig struct {
	sched *sim.Scheduler
	ring  *ring.Ring
	dev   *Device
	tx    *TxDriver
	rx    *RxDriver
	recv  *ctmsp.Receiver
}

func newRig(t *testing.T, txCfg TxConfig, rxCfg RxConfig) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())

	txDrv := tradapter.NewHost(r, "tx", 11, tradapter.DefaultConfig())
	// Only the transmitter's DMA buffers live in IO Channel Memory.
	rxTrCfg := tradapter.DefaultConfig()
	rxTrCfg.DMABufferKind = rtpc.SystemMemory
	rxDrv := tradapter.NewHost(r, "rx", 11, rxTrCfg)

	conn := ctmsp.Dial(txDrv, rxDrv.Station().Addr(), 1)
	dev := NewDevice(txDrv.Kernel())
	txDriver := NewTxDriver(dev, txDrv, conn, txCfg)
	recv := &ctmsp.Receiver{}
	rxDriver := NewRxDriver(rxDrv, recv, rxCfg)
	return &rig{sched: sched, ring: r, dev: dev, tx: txDriver, rx: rxDriver, recv: recv}
}

func TestVCAInterruptSourceIsExact(t *testing.T) {
	sched := sim.NewScheduler()
	m := rtpc.NewMachine(sched, "tx", 1)
	k := kernel.New(m)
	dev := NewDevice(k)
	var irqs []sim.Time
	dev.OnIRQ = func(_ uint64, at sim.Time) { irqs = append(irqs, at) }
	dev.Start()
	sched.RunUntil(120 * sim.Millisecond)
	dev.Stop()
	if len(irqs) != 10 {
		t.Fatalf("want 10 interrupts in 120 ms, got %d", len(irqs))
	}
	for i := 1; i < len(irqs); i++ {
		if irqs[i]-irqs[i-1] != Interval {
			t.Fatalf("IRQ period must be exactly 12 ms (the paper verified ±500 ns): %v", irqs[i]-irqs[i-1])
		}
	}
}

func TestStreamEndToEnd(t *testing.T) {
	r := newRig(t, DefaultTxConfig(), DefaultRxConfigB())
	r.dev.Start()
	r.sched.RunUntil(2 * sim.Second)
	r.dev.Stop()
	r.sched.Run()

	st := r.recv.Stats()
	// 2 s / 12 ms ≈ 166 packets.
	if st.InOrder < 160 || st.Lost != 0 || st.Duplicates != 0 {
		t.Fatalf("stream should be complete and ordered: %+v", st)
	}
	if r.tx.Stats().MbufDrops != 0 {
		t.Fatalf("no mbuf drops expected: %+v", r.tx.Stats())
	}
	// 2000-byte packets every 12 ms ≈ 166.7 KB/s, the paper's rate.
	rate := float64(st.InOrder) * 2000 / 2
	if rate < 150_000 {
		t.Fatalf("transport rate %f B/s below the CTMS requirement", rate)
	}
}

func TestMeasurementPointsOrdering(t *testing.T) {
	r := newRig(t, DefaultTxConfig(), RxConfig{CopyToMbufs: true})
	type rec struct{ p1, p2, p3, p4 sim.Time }
	recs := map[uint64]*rec{}
	get := func(n uint64) *rec {
		if recs[n] == nil {
			recs[n] = &rec{}
		}
		return recs[n]
	}
	r.dev.OnIRQ = func(tick uint64, at sim.Time) { get(tick).p1 = at }
	r.tx.OnHandlerEntry = func(tick uint64, at sim.Time) { get(tick).p2 = at }
	r.tx.OnPreTransmit = func(num uint32, at sim.Time) { get(uint64(num)).p3 = at }
	r.rx.OnClassified = func(h ctmsp.Header, at sim.Time) { get(uint64(h.PacketNum)).p4 = at }

	r.dev.Start()
	r.sched.RunUntil(500 * sim.Millisecond)
	r.dev.Stop()
	r.sched.Run()

	n := 0
	for _, rc := range recs {
		if rc.p4 == 0 {
			continue // tail packet still in flight at shutdown
		}
		n++
		if !(rc.p1 < rc.p2 && rc.p2 < rc.p3 && rc.p3 < rc.p4) {
			t.Fatalf("probe points out of order: %+v", rc)
		}
		// Histogram 6 quantity: entry→pre-transmit ≈ 2.6 ms on an idle
		// transmitter.
		h6 := (rc.p3 - rc.p2).Microseconds()
		if h6 < 2300 || h6 > 3000 {
			t.Fatalf("handler→pre-transmit %v µs, want ≈2600", h6)
		}
		// Histogram 7 quantity: pre-transmit→classified ≈ 10.74 ms.
		h7 := (rc.p4 - rc.p3).Microseconds()
		if h7 < 10500 || h7 > 11300 {
			t.Fatalf("tx→rx %v µs, want ≈10740–10900", h7)
		}
	}
	if n < 30 {
		t.Fatalf("too few complete packets measured: %d", n)
	}
}

func TestCopyVCAToMbufsAddsLatency(t *testing.T) {
	run := func(copyFromDev bool) float64 {
		cfg := DefaultTxConfig()
		cfg.CopyVCAToMbufs = copyFromDev
		r := newRig(t, cfg, RxConfig{CopyToMbufs: true})
		var sum float64
		var n int
		var entries = map[uint64]sim.Time{}
		r.tx.OnHandlerEntry = func(tick uint64, at sim.Time) { entries[tick] = at }
		r.tx.OnPreTransmit = func(num uint32, at sim.Time) {
			if e, ok := entries[uint64(num)]; ok {
				sum += (at - e).Microseconds()
				n++
			}
		}
		r.dev.Start()
		r.sched.RunUntil(300 * sim.Millisecond)
		r.dev.Stop()
		r.sched.Run()
		return sum / float64(n)
	}
	direct := run(false)
	copied := run(true)
	// The byte-wide device copy of ≈2 KB at 2 µs/byte should add ≈4 ms.
	if copied-direct < 3000 {
		t.Fatalf("device copy should add ≈4000 µs: direct=%.0f copied=%.0f", direct, copied)
	}
}

func TestRxExamineInPlaceSkipsCopy(t *testing.T) {
	run := func(cfg RxConfig) sim.Time {
		r := newRig(t, DefaultTxConfig(), cfg)
		r.dev.Start()
		r.sched.RunUntil(500 * sim.Millisecond)
		r.dev.Stop()
		r.sched.Run()
		return r.rx.k.CPU().Stats().BusyTime
	}
	full := run(DefaultRxConfigB())
	inPlace := run(RxConfig{CopyToMbufs: false, CopyToDevice: false})
	if inPlace >= full {
		t.Fatalf("in-place examination should use less CPU: %v vs %v", inPlace, full)
	}
}

func TestMaxOutstandingDropsExcess(t *testing.T) {
	cfg := DefaultTxConfig()
	r := newRig(t, cfg, RxConfig{CopyToMbufs: true})
	r.tx.MaxOutstanding = 1
	// Stall the ring so packets cannot drain: repeated purges.
	for i := 0; i < 20; i++ {
		r.sched.At(sim.Time(i)*9*sim.Millisecond, r.ring.Purge)
	}
	r.dev.Start()
	r.sched.RunUntil(300 * sim.Millisecond)
	r.dev.Stop()
	r.sched.Run()
	st := r.tx.Stats()
	if st.QueueDrops == 0 {
		t.Fatal("flow control should have dropped packets while the ring was purging")
	}
	// Every interrupt either sent its packet or dropped it at the device.
	if st.PacketsSent+st.QueueDrops+st.MbufDrops != st.Interrupts {
		t.Fatalf("interrupts unaccounted for: %+v", st)
	}
}

// TestVCAIoctls checks the transmit driver's control surface: Stats
// returns a snapshot the caller cannot alter, and MaxOutstanding's zero
// value leaves the queue unbounded, so the purge stall that makes a
// bound of one drop packets drops none at the device queue.
func TestVCAIoctls(t *testing.T) {
	r := newRig(t, DefaultTxConfig(), RxConfig{CopyToMbufs: true})
	if r.tx.MaxOutstanding != 0 {
		t.Fatalf("default MaxOutstanding = %d, want 0 (unlimited)", r.tx.MaxOutstanding)
	}
	snap := r.tx.Stats()
	if snap != (TxStats{}) {
		t.Fatalf("stats before start = %+v, want zero", snap)
	}
	snap.QueueDrops = 99
	if r.tx.Stats().QueueDrops != 0 {
		t.Fatal("Stats must return a copy, not the driver's own counters")
	}
	for i := 0; i < 20; i++ {
		r.sched.At(sim.Time(i)*9*sim.Millisecond, r.ring.Purge)
	}
	r.dev.Start()
	r.sched.RunUntil(300 * sim.Millisecond)
	r.dev.Stop()
	r.sched.Run()
	st := r.tx.Stats()
	if st.Interrupts == 0 {
		t.Fatal("no interrupts counted")
	}
	if st.QueueDrops != 0 {
		t.Fatalf("unbounded queue dropped %d packets", st.QueueDrops)
	}
	if st.PacketsSent+st.MbufDrops != st.Interrupts {
		t.Fatalf("interrupts unaccounted for: %+v", st)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	sched := sim.NewScheduler()
	k := kernel.New(rtpc.NewMachine(sched, "m", 1))
	dev := NewDevice(k)
	dev.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double start must panic")
		}
	}()
	dev.Start()
}

func TestPurgeLossShowsAsGap(t *testing.T) {
	r := newRig(t, DefaultTxConfig(), RxConfig{CopyToMbufs: true})
	r.dev.Start()
	// Purge while a CTMSP frame is on the wire, deterministically.
	purges := 0
	var poll func()
	poll = func() {
		if purges >= 1 {
			return
		}
		if f := r.ring.Current(); f != nil && f.Kind == ring.LLC {
			purges++
			r.ring.Purge()
			return
		}
		r.sched.After(200*sim.Microsecond, poll)
	}
	r.sched.After(50*sim.Millisecond, poll)
	r.sched.RunUntil(2 * sim.Second)
	r.dev.Stop()
	r.sched.Run()
	st := r.recv.Stats()
	if st.Lost != 1 || st.Gaps != 1 {
		t.Fatalf("one purge during a frame should lose exactly one packet: %+v", st)
	}
	if st.Duplicates != 0 {
		t.Fatalf("no duplicates expected without purge-interrupt: %+v", st)
	}
}

// TestTAPKeepsItsOwnCaptureBytes runs a TAP-monitored ring carrying the
// pooled VCA stream long enough for every send record, and so every
// capture buffer, to be used again many times. Each TAP entry must still
// decode to the packet number that was on the wire when it was captured.
func TestTAPKeepsItsOwnCaptureBytes(t *testing.T) {
	r := newRig(t, DefaultTxConfig(), DefaultRxConfigB())
	tap := measure.NewTAP(r.ring, 0)
	var onWire []uint32
	envelopes := map[*tradapter.Outgoing]bool{}
	r.ring.AddTap(func(f *ring.Frame, _, _ sim.Time, _ ring.DeliveryStatus) {
		h, err := ctmsp.DecodeHeader(f.Capture)
		if err != nil {
			t.Fatalf("frame %d on the wire has no CTMSP header: %v", f.Seq, err)
		}
		onWire = append(onWire, h.PacketNum)
		envelopes[f.Payload.(*tradapter.Outgoing)] = true
	})
	r.dev.Start()
	r.sched.RunUntil(2 * sim.Second)
	r.dev.Stop()
	r.sched.Run()

	if len(onWire) < 160 || len(envelopes) > 4 {
		t.Fatalf("%d packets in %d envelopes: the stream must reuse its few envelopes", len(onWire), len(envelopes))
	}
	decode := func(b []byte) (uint32, bool) {
		h, err := ctmsp.DecodeHeader(b)
		return h.PacketNum, err == nil
	}
	entries := tap.Entries()
	if len(entries) != len(onWire) {
		t.Fatalf("TAP recorded %d frames, the wire carried %d", len(entries), len(onWire))
	}
	for i, e := range entries {
		if num, ok := decode(e.Capture); !ok || num != onWire[i] {
			t.Fatalf("TAP entry %d decodes to packet %d (ok=%t), the wire carried %d", i, num, ok, onWire[i])
		}
	}
	if out, gaps := tap.SequenceCheck(decode); out != 0 || gaps != 0 {
		t.Fatalf("unpurged stream: %d out of order, %d gaps", out, gaps)
	}
}
