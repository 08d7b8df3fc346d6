package tradapter

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
)

func pair(t *testing.T, cfg Config) (*sim.Scheduler, *ring.Ring, *Driver, *Driver) {
	t.Helper()
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	tx := NewHost(r, "tx", 7, cfg)
	// Only the transmitter's buffers move to IO Channel Memory in the
	// paper; the receiver keeps system-memory DMA buffers.
	rxCfg := cfg
	rxCfg.DMABufferKind = rtpc.SystemMemory
	rx := NewHost(r, "rx", 7, rxCfg)
	return sched, r, tx, rx
}

func mkPacket(k *kernel.Kernel, size int, class Class, dst ring.Addr) *Outgoing {
	ch := k.Pool.AllocNoWait(size)
	return &Outgoing{Chain: ch, Size: size, Class: class, Dst: dst}
}

func TestNewHost(t *testing.T) {
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	r.Attach("pop")
	names := []string{"a", "b", "c"}
	hosts := make([]*Driver, len(names))
	for i, name := range names {
		hosts[i] = NewHost(r, name, 42, DefaultConfig())
	}
	for i, d := range hosts {
		name := names[i]
		st, m := d.Station(), d.Kernel().Machine
		if st.Name() != name || m.Name != name {
			t.Errorf("host %d: station %q, machine %q, want both %q", i, st.Name(), m.Name, name)
		}
		if want := ring.Addr(i + 2); st.Addr() != want || r.Station(want) != st {
			t.Errorf("host %q: address %d, want %d in call order after the one prior station", name, st.Addr(), want)
		}
		if d.Kernel().Sched() != r.Scheduler() {
			t.Errorf("host %q runs on another scheduler than its ring", name)
		}
		if got, want := m.RNG().Seed(), rtpc.NewMachine(sched, name, 42).RNG().Seed(); got != want {
			t.Errorf("host %q: machine RNG seed %d, want %d (NewMachine's fork)", name, got, want)
		}
		if i > 0 && d.Kernel() == hosts[i-1].Kernel() {
			t.Errorf("hosts %q and %q share a kernel", names[i-1], name)
		}
	}
}

func TestEndToEndPacket(t *testing.T) {
	sched, _, tx, rx := pair(t, DefaultConfig())
	var got *Received
	rx.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
		snap := *rcv // the Received belongs to its rx buffer once released
		got = &snap
		rcv.Release()
		return nil
	})
	p := mkPacket(tx.k, 2000, ClassCTMSP, rx.Station().Addr())
	var status ring.DeliveryStatus
	var preAt sim.Time
	p.Done = func(s ring.DeliveryStatus) { status = s }
	p.PreTransmit = func() { preAt = sched.Now() }
	tx.Output(p)
	sched.Run()

	if got == nil {
		t.Fatal("packet never classified at the receiver")
	}
	if got.Class != ClassCTMSP || got.Size != 2000 {
		t.Fatalf("received wrong packet: %+v", got)
	}
	if !status.Delivered {
		t.Fatalf("transmitter should learn delivery: %v", status)
	}
	// The paper's histogram 7 quantity: point 3 → point 4 for a
	// 2000-byte frame is ≈10.74–10.9 ms on an idle ring (Figure 5-3).
	lat := got.At - preAt
	if lat < 10500*sim.Microsecond || lat > 11300*sim.Microsecond {
		t.Fatalf("tx→rx latency %v, want ≈10.74–10.9 ms", lat)
	}
}

func TestDriverPriorityQueuesCTMSPFirst(t *testing.T) {
	sched, _, tx, rx := pair(t, DefaultConfig())
	var order []Class
	for _, c := range []Class{ClassCTMSP, ClassIP, ClassARP} {
		c := c
		rx.SetHandler(c, func(rcv *Received) []rtpc.Seg {
			order = append(order, c)
			rcv.Release()
			return nil
		})
	}
	dst := rx.Station().Addr()
	// Queue IP, IP, CTMSP while the first IP is being serviced: the
	// CTMSP packet must overtake the second IP packet.
	tx.Output(mkPacket(tx.k, 1000, ClassIP, dst))
	tx.Output(mkPacket(tx.k, 1000, ClassIP, dst))
	tx.Output(mkPacket(tx.k, 1000, ClassCTMSP, dst))
	sched.Run()
	if len(order) != 3 {
		t.Fatalf("want 3 packets, got %v", order)
	}
	if order[1] != ClassCTMSP {
		t.Fatalf("CTMSP should jump the queue: %v", order)
	}
}

func TestNoDriverPriorityIsFIFO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DriverPriority = false
	sched, _, tx, rx := pair(t, cfg)
	var order []Class
	for _, c := range []Class{ClassCTMSP, ClassIP} {
		c := c
		rx.SetHandler(c, func(rcv *Received) []rtpc.Seg {
			order = append(order, c)
			rcv.Release()
			return nil
		})
	}
	dst := rx.Station().Addr()
	tx.Output(mkPacket(tx.k, 1000, ClassIP, dst))
	tx.Output(mkPacket(tx.k, 1000, ClassIP, dst))
	tx.Output(mkPacket(tx.k, 1000, ClassCTMSP, dst))
	sched.Run()
	if order[2] != ClassCTMSP {
		t.Fatalf("without driver priority the queue is FIFO: %v", order)
	}
}

func TestHeaderPrecomputeSavesWork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrecomputeHeader = false
	sched, _, tx, rx := pair(t, cfg)
	dst := rx.Station().Addr()
	for i := 0; i < 5; i++ {
		tx.Output(mkPacket(tx.k, 500, ClassIP, dst))
	}
	sched.Run()
	if got := tx.Stats().HeaderComps; got != 5 {
		t.Fatalf("per-packet header computation: want 5, got %d", got)
	}

	// With precompute, the only header computation is the connection's.
	sched2, _, tx2, rx2 := pair(t, DefaultConfig())
	tx2.ComputeHeader(rx2.Station().Addr())
	for i := 0; i < 5; i++ {
		tx2.Output(mkPacket(tx2.k, 500, ClassIP, rx2.Station().Addr()))
	}
	sched2.Run()
	if got := tx2.Stats().HeaderComps; got != 1 {
		t.Fatalf("precomputed header: want 1 computation, got %d", got)
	}
}

func TestPreTransmitProbeFires(t *testing.T) {
	sched, _, tx, rx := pair(t, DefaultConfig())
	p := mkPacket(tx.k, 2000, ClassCTMSP, rx.Station().Addr())
	var at sim.Time
	p.PreTransmit = func() { at = sched.Now() }
	tx.Output(p)
	sched.Run()
	// Point 3 should land after the 2000 µs copy into IO Channel Memory
	// plus driver code, well before the ≈10.7 ms delivery.
	if at < 2*sim.Millisecond || at > 4*sim.Millisecond {
		t.Fatalf("pre-transmit probe at %v, want ≈2.1–2.6 ms", at)
	}
}

func TestCopyHeaderOnlyIsFaster(t *testing.T) {
	run := func(copyBytes int) sim.Time {
		sched, _, tx, rx := pair(t, DefaultConfig())
		p := mkPacket(tx.k, 2000, ClassCTMSP, rx.Station().Addr())
		p.CopyBytes = copyBytes
		var at sim.Time
		p.PreTransmit = func() { at = sched.Now() }
		tx.Output(p)
		sched.Run()
		return at
	}
	full := run(0)     // 0 means full size
	hdronly := run(34) // ring header + CTMSP header
	if hdronly >= full {
		t.Fatalf("header-only copy should reach point 3 sooner: %v vs %v", hdronly, full)
	}
	if full-hdronly < 1500*sim.Microsecond {
		t.Fatalf("savings should be ≈1966µs of copying, got %v", full-hdronly)
	}
}

func TestSequencePreservedUnderLoad(t *testing.T) {
	sched, _, tx, rx := pair(t, DefaultConfig())
	var got []int
	rx.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
		got = append(got, rcv.Frame.Payload.(*Outgoing).Chain.Tag.(int))
		rcv.Release()
		return nil
	})
	dst := rx.Station().Addr()
	for i := 0; i < 30; i++ {
		p := mkPacket(tx.k, 800, ClassCTMSP, dst)
		p.Chain.Tag = i
		tx.Output(p)
	}
	sched.Run()
	if len(got) != 30 {
		t.Fatalf("want 30 packets, got %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("sequence broken at %d: %v", i, got)
		}
	}
}

func TestPurgeLossIsSilentWithoutPurgeInterrupt(t *testing.T) {
	sched, r, tx, rx := pair(t, DefaultConfig())
	delivered := 0
	rx.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
		delivered++
		rcv.Release()
		return nil
	})
	p := mkPacket(tx.k, 2000, ClassCTMSP, rx.Station().Addr())
	doneCalled := false
	p.Done = func(s ring.DeliveryStatus) { doneCalled = true }
	tx.Output(p)
	// Purge while the frame is on the wire: it enters ≈7.3 ms after
	// output (copy 2.2 + DMA 4.2 + card 0.9) and occupies it ≈4 ms.
	sched.After(8*sim.Millisecond, r.Purge)
	sched.Run()
	if delivered != 0 {
		t.Fatal("purged frame must be lost")
	}
	if !doneCalled {
		t.Fatal("driver must complete the packet (it cannot detect the purge)")
	}
	if tx.Stats().Retransmits != 0 {
		t.Fatal("real adapter cannot retransmit on purge")
	}
}

func TestPurgeInterruptAblationRetransmits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PurgeInterrupt = true
	sched, r, tx, rx := pair(t, cfg)
	delivered := 0
	rx.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
		delivered++
		rcv.Release()
		return nil
	})
	p := mkPacket(tx.k, 2000, ClassCTMSP, rx.Station().Addr())
	tx.Output(p)
	sched.After(8*sim.Millisecond, r.Purge)
	sched.Run()
	if delivered != 1 {
		t.Fatalf("hypothetical purge-interrupt adapter should recover the packet, delivered=%d", delivered)
	}
	if tx.Stats().Retransmits != 1 {
		t.Fatalf("retransmit accounting: %+v", tx.Stats())
	}
}

func TestMACFramesCostInterruptsInPromiscuousMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PromiscuousMAC = true
	sched, r, _, rx := pair(t, cfg)
	mon := r.Attach("monitor")
	for i := 0; i < 50; i++ {
		mon.Transmit(ring.NewMACFrame(mon.Addr(), ring.MACStandbyMonitorPresent), nil)
	}
	sched.Run()
	if got := rx.Stats().RxMACFrames; got != 50 {
		t.Fatalf("promiscuous adapter should see all MAC frames, got %d", got)
	}
	if rx.k.CPU().Stats().BusyTime < 50*MACFrameCost {
		t.Fatal("MAC frames should consume CPU")
	}
}

func TestMACFramesFreeWhenNotPromiscuous(t *testing.T) {
	sched, r, _, rx := pair(t, DefaultConfig())
	mon := r.Attach("monitor")
	for i := 0; i < 50; i++ {
		mon.Transmit(ring.NewMACFrame(mon.Addr(), ring.MACStandbyMonitorPresent), nil)
	}
	sched.Run()
	if got := rx.Stats().RxMACFrames; got != 0 {
		t.Fatalf("normal adapter strips MAC frames in ROM, saw %d", got)
	}
}

func TestRxBufferExhaustionDropsFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RxBuffers = 1
	sched, _, tx, rx := pair(t, cfg)
	// A handler that never releases the buffer: the second frame finds
	// no buffer and is lost with its C bit clear.
	first := true
	rx.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
		if first {
			first = false
			return nil // leak the buffer deliberately
		}
		rcv.Release()
		return nil
	})
	dst := rx.Station().Addr()
	tx.Output(mkPacket(tx.k, 1000, ClassCTMSP, dst))
	tx.Output(mkPacket(tx.k, 1000, ClassCTMSP, dst))
	tx.Output(mkPacket(tx.k, 1000, ClassCTMSP, dst))
	sched.Run()
	if rx.Stats().RxNoBuffer == 0 {
		t.Fatal("receiver should have run out of rx DMA buffers")
	}
}

func TestComputeHeader(t *testing.T) {
	_, _, tx, rx := pair(t, DefaultConfig())
	dst := rx.Station().Addr()
	hdr := tx.ComputeHeader(dst)
	if want := BuildRingHeader(tx.Station().Addr(), dst); string(hdr) != string(want) || len(hdr) != 22 {
		t.Fatalf("connection header % x, want the 22-byte % x", hdr, want)
	}
	if got := tx.Stats().HeaderComps; got != 1 {
		t.Fatalf("one connection header: want 1 computation, got %d", got)
	}
}

func TestReleaseTwicePanics(t *testing.T) {
	sched, _, tx, rx := pair(t, DefaultConfig())
	rx.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
		rcv.Release()
		defer func() {
			if recover() == nil {
				t.Error("double release must panic")
			}
		}()
		rcv.Release()
		return nil
	})
	tx.Output(mkPacket(tx.k, 500, ClassCTMSP, rx.Station().Addr()))
	sched.Run()
}

func TestBuildRingHeaderEncodesAddresses(t *testing.T) {
	h := BuildRingHeader(3, 9)
	if h[2] != 0 || h[3] != 9 {
		t.Fatalf("destination not encoded: % x", h)
	}
	if h[8] != 0 || h[9] != 3 {
		t.Fatalf("source not encoded: % x", h)
	}
}

// TestRoundTripAllocations sends one packet from tx to rx on a
// two-station ring and runs it to completion: transmit copy program,
// DMA, card latency, the ring, receive card latency, rx DMA, the
// interrupt, classification, the handler's spliced program and the
// transmit-complete interrupt. Every one of those runs off prebuilt
// programs and pooled records, and the ring frame lives in the envelope,
// so a warm round trip allocates nothing.
func TestRoundTripAllocations(t *testing.T) {
	sched, _, tx, rx := pair(t, DefaultConfig())
	var prog []rtpc.Seg
	delivered := 0
	rx.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
		delivered++
		prog = rx.k.Machine.CopySegs(prog[:0], rcv.Size, rcv.Buffer.Kind, rtpc.SystemMemory)
		prog = append(prog, rcv.ReleaseSeg())
		return prog
	})
	chain := &kernel.Chain{}
	done := 0
	p := &Outgoing{Chain: chain, Class: ClassCTMSP, Dst: rx.Station().Addr()}
	p.Done = func(ring.DeliveryStatus) {
		done++
		tx.k.Pool.Free(chain)
	}
	roundTrip := func() {
		if !tx.k.Pool.AllocInto(chain, 2000) {
			t.Fatal("mbuf pool exhausted")
		}
		p.Size = 2000
		tx.Output(p)
		sched.Run()
	}
	for i := 0; i < 4; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 0 {
		t.Fatalf("warm tx→rx round trip allocated %v times, want 0", allocs)
	}
	if delivered != 105 || done != 105 {
		t.Fatalf("delivered %d, completed %d, want 105 each", delivered, done)
	}
}
