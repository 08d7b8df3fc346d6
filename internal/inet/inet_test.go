package inet

import (
	"testing"
	"testing/quick"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

func TestChecksumKnownVectors(t *testing.T) {
	// RFC 1071 worked example.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("checksum: got %#x", got)
	}
	if Checksum(nil) != 0xFFFF {
		t.Fatal("empty checksum should be ^0")
	}
}

func TestChecksumVerifyProperty(t *testing.T) {
	f := func(data []byte) bool {
		// Append the checksum and verify the whole.
		cs := Checksum(data)
		padded := data
		if len(padded)%2 == 1 {
			padded = append(append([]byte{}, data...), 0)
		} else {
			padded = append([]byte{}, data...)
		}
		whole := append(padded, byte(cs>>8), byte(cs))
		return VerifyChecksum(whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIPHeaderRoundTrip(t *testing.T) {
	h := IPHeader{Proto: ProtoRDT, Src: 3, Dst: 9, Length: 1500, ID: 77}
	var b [IPHeaderSize]byte
	h.Encode(&b)
	got, err := DecodeIPHeader(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v vs %+v", got, h)
	}
	// Corrupt a byte: checksum must catch it.
	b[16] ^= 0xFF
	if _, err := DecodeIPHeader(b[:]); err == nil {
		t.Fatal("corrupted header must fail checksum")
	}
}

func inetPair(t *testing.T) (*sim.Scheduler, *ring.Ring, *Stack, *Stack) {
	t.Helper()
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	mk := func(name string) *Stack {
		return NewStack(tradapter.NewHost(r, name, 3, tradapter.StockConfig()))
	}
	return sched, r, mk("a"), mk("b")
}

func TestDatagramDelivery(t *testing.T) {
	sched, _, a, b := inetPair(t)
	var got *Datagram
	b.OnDatagram(func(dg *Datagram, _ sim.Time) { d := *dg; got = &d })
	a.SendDatagram(b.Addr(), 100, 77, nil)
	sched.Run()
	if got == nil {
		t.Fatal("datagram not delivered")
	}
	if got.Tag != 77 || got.Bytes != 100 {
		t.Fatalf("wrong datagram: %+v", got)
	}
}

func TestARPResolvesOnFirstSend(t *testing.T) {
	sched, _, a, b := inetPair(t)
	delivered := 0
	b.OnDatagram(func(*Datagram, sim.Time) { delivered++ })
	a.SendDatagram(b.Addr(), 60, 0, nil)
	// The second send happens after resolution completes, so it hits the
	// warm cache.
	sched.After(sim.Second, func() {
		a.SendDatagram(b.Addr(), 60, 0, nil)
	})
	sched.Run()
	if delivered != 2 {
		t.Fatalf("want 2 datagrams, got %d", delivered)
	}
	st := a.ARPStats()
	if st.Requests != 1 {
		t.Fatalf("one ARP request expected for a cold cache: %+v", st)
	}
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("first send misses, later sends hit: %+v", st)
	}
	// B replied once.
	if b.ARPStats().Replies != 1 {
		t.Fatalf("B should reply once: %+v", b.ARPStats())
	}
}

func TestARPTimeoutDropsPacket(t *testing.T) {
	sched, r, a, _ := inetPair(t)
	ghost := r.Attach("ghost") // on the ring, but no ARP responder
	done := false
	a.SendDatagram(ghost.Addr(), 60, 0, func() { done = true })
	sched.Run()
	if !done {
		t.Fatal("send completion must fire even on ARP failure")
	}
	st := a.ARPStats()
	if st.Timeouts != 1 {
		t.Fatalf("ARP should time out: %+v", st)
	}
	if a.Stats().Dropped == 0 {
		t.Fatal("the queued packet should be dropped")
	}
}

func TestRDTReliableDelivery(t *testing.T) {
	sched, _, a, b := inetPair(t)
	conn := a.RDTOpen(b.Addr())
	rconn := b.RDTOpen(a.Addr())
	var got []uint32
	rconn.OnDeliver(func(tag uint32, n int, _ sim.Time) { got = append(got, tag) })
	for i := uint32(0); i < 10; i++ {
		conn.Send(i, 500, nil)
	}
	sched.Run()
	if len(got) != 10 {
		t.Fatalf("want 10 deliveries, got %d", len(got))
	}
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
	if conn.Stats().Retransmits != 0 {
		t.Fatalf("clean network should need no retransmits: %+v", conn.Stats())
	}
	// Reliability costs ack frames on the ring.
	if rconn.Stats().AcksSent == 0 {
		t.Fatal("acks should have been sent")
	}
}

func TestRDTFragmentsLargePayload(t *testing.T) {
	sched, _, a, b := inetPair(t)
	conn := a.RDTOpen(b.Addr())
	rconn := b.RDTOpen(a.Addr())
	bytes := 0
	rconn.OnDeliver(func(_ uint32, n int, _ sim.Time) { bytes += n })
	// A 2000-byte CTMS packet does not fit in one MTU: 2 segments.
	conn.Send(0, 2000, nil)
	sched.Run()
	if bytes != 2000 {
		t.Fatalf("want 2000 bytes delivered, got %d", bytes)
	}
	if conn.Stats().SegsSent != 2 {
		t.Fatalf("2000 bytes should fragment into 2 segments: %+v", conn.Stats())
	}
}

func TestRDTRecoversFromPurgeLoss(t *testing.T) {
	sched, r, a, b := inetPair(t)
	conn := a.RDTOpen(b.Addr())
	rconn := b.RDTOpen(a.Addr())
	delivered := 0
	rconn.OnDeliver(func(uint32, int, sim.Time) { delivered++ })
	// Warm the ARP cache first so the purge hits a data frame.
	a.SendDatagram(b.Addr(), 60, 0, nil)
	sched.RunUntil(100 * sim.Millisecond)
	for i := uint32(0); i < 5; i++ {
		conn.Send(i, 500, nil)
	}
	// Deterministic fault injection: poll until a DATA frame (not an
	// ack) is on the wire, then purge the ring so it is destroyed.
	purged := false
	var poll func()
	poll = func() {
		if purged {
			return
		}
		if f := r.Current(); f != nil {
			if out, ok := f.Payload.(*tradapter.Outgoing); ok {
				if dg, ok := out.Chain.Tag.(*Datagram); ok && !dg.Ack {
					purged = true
					r.Purge()
					return
				}
			}
		}
		sched.After(100*sim.Microsecond, poll)
	}
	poll()
	sched.RunUntil(5 * sim.Second)
	if !purged {
		t.Fatal("fault injection never found a data frame")
	}
	if delivered != 5 {
		t.Fatalf("transport must recover the purged segment: %d/5", delivered)
	}
	if conn.Stats().Retransmits == 0 {
		t.Fatal("recovery should show retransmissions")
	}
}

func TestRDTFastRetransmitBeatsTimer(t *testing.T) {
	sched, r, a, b := inetPair(t)
	conn := a.RDTOpen(b.Addr())
	rconn := b.RDTOpen(a.Addr())
	delivered := 0
	var lastDelivery sim.Time
	rconn.OnDeliver(func(uint32, int, sim.Time) { delivered++; lastDelivery = sched.Now() })
	// Warm ARP.
	a.SendDatagram(b.Addr(), 60, 0, nil)
	sched.RunUntil(100 * sim.Millisecond)
	// Send a window of segments; kill the FIRST data frame on the wire
	// so the rest arrive out of order and generate duplicate acks.
	for i := uint32(0); i < 6; i++ {
		conn.Send(i, 500, nil)
	}
	killed := false
	var poll func()
	poll = func() {
		if killed {
			return
		}
		if f := r.Current(); f != nil {
			if out, ok := f.Payload.(*tradapter.Outgoing); ok {
				if dg, ok := out.Chain.Tag.(*Datagram); ok && !dg.Ack {
					killed = true
					r.Purge()
					return
				}
			}
		}
		sched.After(100*sim.Microsecond, poll)
	}
	poll()
	sched.RunUntil(5 * sim.Second)
	if !killed {
		t.Fatal("fault injection failed")
	}
	if delivered != 6 {
		t.Fatalf("all segments must eventually deliver: %d/6", delivered)
	}
	st := conn.Stats()
	if st.FastRetransmits == 0 {
		t.Fatalf("loss under a full window should trigger fast retransmit: %+v", st)
	}
	// Recovery must complete well before the purge(10ms) + RTO(500ms)
	// path would allow.
	if lastDelivery > 400*sim.Millisecond {
		t.Fatalf("fast retransmit should beat the 500 ms timer: finished at %v", lastDelivery)
	}
}

// TestRDTRoundTripAllocations sends one data segment from a to b and
// runs the world to quiescence: transport and IP output, an ARP cache
// hit, the driver and the ring, IP input and in-order delivery, the ack's
// whole way back, and the retransmission timer that the ack left stale.
// Datagrams ride pooled send and receive records, and segments and
// timers are pooled too, so a warm round trip allocates nothing. A
// datagram the mbuf pool cannot hold ends at IP output instead, its send
// record straight back in the pool, and allocates nothing either.
func TestRDTRoundTripAllocations(t *testing.T) {
	sched, _, a, b := inetPair(t)
	conn := a.RDTOpen(b.Addr())
	rconn := b.RDTOpen(a.Addr())
	var delivered, tag uint32
	rconn.OnDeliver(func(got uint32, n int, _ sim.Time) {
		if got != tag || n != 1000 {
			t.Errorf("delivered tag %d with %d bytes, want %d with 1000", got, n, tag)
		}
		delivered++
	})
	roundTrip := func() {
		tag++
		conn.Send(tag, 1000, nil)
		sched.Run()
	}
	for i := 0; i < 4; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 0 {
		t.Fatalf("warm RDT send → receive → ack round trip allocated %v times, want 0", allocs)
	}
	if delivered != 105 || conn.Stats().AcksRcvd != 105 || conn.InFlight() != 0 {
		t.Fatalf("delivered %d, acks received %d, in flight %d; want 105, 105, 0",
			delivered, conn.Stats().AcksRcvd, conn.InFlight())
	}

	// 2 MiB needs more than the default pool's 1024 clusters.
	dropped := func() {
		a.SendDatagram(b.Addr(), 2<<20, 0, nil)
		sched.Run()
	}
	dropped()
	if allocs := testing.AllocsPerRun(100, dropped); allocs > 0 {
		t.Fatalf("warm datagram dropped at IP output allocated %v times, want 0", allocs)
	}
	if got := a.Stats().Dropped; got != 102 {
		t.Fatalf("IP dropped %d datagrams, want 102", got)
	}
}

func TestRDTWindowLimitsInflight(t *testing.T) {
	sched, _, a, b := inetPair(t)
	conn := a.RDTOpen(b.Addr())
	b.RDTOpen(a.Addr())
	for i := uint32(0); i < 50; i++ {
		conn.Send(i, 500, nil)
	}
	if conn.InFlight() > RDTWindow {
		t.Fatalf("inflight %d exceeds window %d", conn.InFlight(), RDTWindow)
	}
	if conn.Backlog() != 50-RDTWindow {
		t.Fatalf("backlog: %d", conn.Backlog())
	}
	sched.Run()
	if conn.InFlight() != 0 || conn.Backlog() != 0 {
		t.Fatalf("drain incomplete: %s", conn)
	}
}

func TestIPPaysPerPacketHeaderCost(t *testing.T) {
	sched, _, a, b := inetPair(t)
	for i := 0; i < 10; i++ {
		a.SendDatagram(b.Addr(), 100, 0, nil)
	}
	sched.Run()
	// The stock driver recomputes the ring header for every packet.
	if got := a.drv.Stats().HeaderComps; got < 10 {
		t.Fatalf("stock IP path should compute headers per packet: %d", got)
	}
}
