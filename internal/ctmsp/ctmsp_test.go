package ctmsp

import (
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// encode is Header.Encode into a fresh buffer.
func encode(h Header) []byte {
	var b [HeaderSize]byte
	h.Encode(&b)
	return b[:]
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{DstDevice: 3, PacketNum: 123456, Length: 2000}
	got, err := DecodeHeader(encode(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(dev uint8, num uint32, length uint32) bool {
		h := Header{DstDevice: dev, PacketNum: num, Length: length}
		got, err := DecodeHeader(encode(h))
		return err == nil && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeHeader([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header should fail")
	}
	b := encode(Header{})
	b[0] = 0xFF // break magic
	if _, err := DecodeHeader(b); err == nil {
		t.Fatal("bad magic should fail")
	}
	b = encode(Header{})
	b[2] = 99 // break version
	if _, err := DecodeHeader(b); err == nil {
		t.Fatal("bad version should fail")
	}
}

func newConn(t *testing.T) (*sim.Scheduler, *kernel.Kernel, *Conn) {
	t.Helper()
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	drv := tradapter.NewHost(r, "tx", 1, tradapter.DefaultConfig())
	conn := Dial(drv, r.Attach("rx").Addr(), 1)
	return sched, drv.Kernel(), conn
}

// envelope is a fresh caller-owned envelope and capture buffer, the way
// the VCA's send records hand them to BuildPacket.
func envelope() (*tradapter.Outgoing, *[HeaderSize]byte) {
	return &tradapter.Outgoing{Chain: &kernel.Chain{}}, new([HeaderSize]byte)
}

func TestDialPrecomputesHeaderOnce(t *testing.T) {
	_, _, conn := newConn(t)
	if len(conn.RingHeader()) != 22 {
		t.Fatalf("ring header should be 22 bytes, got %d", len(conn.RingHeader()))
	}
}

func TestBuildPacketNumbersSequentially(t *testing.T) {
	_, k, conn := newConn(t)
	p, capture := envelope()
	for i := 0; i < 5; i++ {
		h, ok := conn.BuildPacket(p, capture, 1988, false)
		if !ok {
			t.Fatal("alloc failed")
		}
		if wire, err := DecodeHeader(p.Capture); err != nil || wire != h {
			t.Fatalf("capture decodes to %+v (%v), want %+v", wire, err, h)
		}
		if p.Chain.Tag != nil {
			t.Fatalf("the VCA path tags no chain, got %v", p.Chain.Tag)
		}
		if h.PacketNum != uint32(i) {
			t.Fatalf("packet %d numbered %d", i, h.PacketNum)
		}
		if h.Length != 2000 {
			t.Fatalf("packet length %d, want 2000", h.Length)
		}
		if p.Size != 2000 {
			t.Fatalf("outgoing size %d", p.Size)
		}
		if p.Class != tradapter.ClassCTMSP {
			t.Fatal("wrong class")
		}
		k.Pool.Free(p.Chain)
	}
	if conn.Stats().PacketsBuilt != 5 {
		t.Fatalf("accounting: %+v", conn.Stats())
	}
}

func TestBuildPacketCopyHeaderOnly(t *testing.T) {
	_, k, conn := newConn(t)
	full, fullCapture := envelope()
	hdr, hdrCapture := envelope()
	if _, ok := conn.BuildPacket(full, fullCapture, 1988, false); !ok {
		t.Fatal("alloc failed")
	}
	if _, ok := conn.BuildPacket(hdr, hdrCapture, 1988, true); !ok {
		t.Fatal("alloc failed")
	}
	if full.CopyBytes != 2000 {
		t.Fatalf("full copy bytes %d", full.CopyBytes)
	}
	if hdr.CopyBytes != HeaderSize+22 {
		t.Fatalf("header-only copy bytes %d", hdr.CopyBytes)
	}
	k.Pool.Free(full.Chain)
	k.Pool.Free(hdr.Chain)
}

func TestBuildPacketMbufExhaustion(t *testing.T) {
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	drv := tradapter.NewHost(r, "tx", 1, tradapter.DefaultConfig())
	k := drv.Kernel()
	k.Pool = kernel.NewPool(4, 1) // tiny pool
	conn := Dial(drv, r.Attach("rx").Addr(), 1)
	p, capture := envelope()
	if _, ok := conn.BuildPacket(p, capture, 1988, false); ok {
		t.Fatal("tiny pool should fail the allocation")
	}
	if p.Chain.Head != nil || p.Size != 0 || p.Capture != nil {
		t.Fatalf("a failed build touched the envelope: %+v", p)
	}
	if conn.Stats().MbufFailures != 1 {
		t.Fatalf("failure accounting: %+v", conn.Stats())
	}
}

func TestReceiverInOrder(t *testing.T) {
	var r Receiver
	var delivered []uint32
	r.OnData = func(h Header, _ sim.Time) { delivered = append(delivered, h.PacketNum) }
	for i := uint32(0); i < 10; i++ {
		if ev := r.Accept(Header{PacketNum: i}, 0); ev != InOrder {
			t.Fatalf("packet %d: %v", i, ev)
		}
	}
	st := r.Stats()
	if st.InOrder != 10 || st.Lost != 0 || st.Duplicates != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(delivered) != 10 {
		t.Fatalf("delivered %d", len(delivered))
	}
}

func TestReceiverGapAccounting(t *testing.T) {
	var r Receiver
	r.Accept(Header{PacketNum: 0}, 0)
	r.Accept(Header{PacketNum: 1}, 0)
	// Packets 2 and 3 lost to a purge burst.
	if ev := r.Accept(Header{PacketNum: 4}, 0); ev != Gap {
		t.Fatalf("want Gap, got %v", ev)
	}
	st := r.Stats()
	if st.Lost != 2 || st.Gaps != 1 {
		t.Fatalf("loss accounting: %+v", st)
	}
	// Stream continues normally after the gap.
	if ev := r.Accept(Header{PacketNum: 5}, 0); ev != InOrder {
		t.Fatalf("post-gap packet: %v", ev)
	}
}

func TestReceiverDuplicateSuppression(t *testing.T) {
	var r Receiver
	delivered := 0
	r.OnData = func(Header, sim.Time) { delivered++ }
	r.Accept(Header{PacketNum: 0}, 0)
	r.Accept(Header{PacketNum: 1}, 0)
	if ev := r.Accept(Header{PacketNum: 1}, 0); ev != Duplicate {
		t.Fatalf("want Duplicate, got %v", ev)
	}
	if delivered != 2 {
		t.Fatalf("duplicate must not be delivered: %d", delivered)
	}
	if r.Stats().Duplicates != 1 {
		t.Fatalf("stats: %+v", r.Stats())
	}
}

func TestReceiverReorderDetection(t *testing.T) {
	var r Receiver
	r.Accept(Header{PacketNum: 5}, 0) // stream starts at 5
	r.Accept(Header{PacketNum: 6}, 0)
	r.Accept(Header{PacketNum: 7}, 0)
	if ev := r.Accept(Header{PacketNum: 3}, 0); ev != Reordered {
		t.Fatalf("ancient packet should be Reordered, got %v", ev)
	}
}

func TestReceiverStartsAtFirstSeen(t *testing.T) {
	var r Receiver
	if ev := r.Accept(Header{PacketNum: 100}, 0); ev != InOrder {
		t.Fatalf("first packet defines the origin: %v", ev)
	}
	if ev := r.Accept(Header{PacketNum: 101}, 0); ev != InOrder {
		t.Fatalf("second packet: %v", ev)
	}
}

// Property: for any loss pattern (subset of a sequential stream), the
// receiver's Lost count equals the number of dropped packets.
func TestReceiverLossAccountingProperty(t *testing.T) {
	f := func(dropMask []bool) bool {
		var r Receiver
		var sent, dropped uint64
		for i, drop := range dropMask {
			sent++
			if drop && i > 0 { // first packet must arrive to anchor the origin
				dropped++
				continue
			}
			r.Accept(Header{PacketNum: uint32(i)}, 0)
		}
		// Trailing drops are undetectable without a closing packet.
		trailing := uint64(0)
		for i := len(dropMask) - 1; i > 0 && dropMask[i]; i-- {
			trailing++
		}
		return r.Stats().Lost == dropped-trailing
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolBalancedAfterExhaustion pins the alloc-failure contract the
// mbuflife analyzer guards statically: a failed BuildPacket counts the
// failure on both the pool and the connection, and strands nothing —
// the pool is exactly as balanced as after a freed success.
func TestPoolBalancedAfterExhaustion(t *testing.T) {
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	drv := tradapter.NewHost(r, "tx", 1, tradapter.DefaultConfig())
	k := drv.Kernel()
	k.Pool = kernel.NewPool(4, 1) // tiny pool
	conn := Dial(drv, r.Attach("rx").Addr(), 1)

	// A small packet fits even the tiny pool; build it and free it.
	p, capture := envelope()
	if _, ok := conn.BuildPacket(p, capture, 64, false); !ok {
		t.Fatal("small packet should fit the tiny pool")
	}
	k.Pool.Free(p.Chain)

	// A full-size packet exhausts it: counted, and nothing stranded.
	if _, ok := conn.BuildPacket(p, capture, 1988, false); ok {
		t.Fatal("tiny pool should fail the full-size allocation")
	}
	ps := k.Pool.Stats()
	if ps.Failures != 1 {
		t.Fatalf("pool failure accounting: %+v", ps)
	}
	if conn.Stats().MbufFailures != 1 {
		t.Fatalf("connection failure accounting: %+v", conn.Stats())
	}
	if ps.Allocs != ps.Frees || ps.SmallInUse != 0 || ps.ClustersInUse != 0 {
		t.Fatalf("pool unbalanced after exhaustion: %+v", ps)
	}
}
