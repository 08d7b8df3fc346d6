package ring

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

func newTestRing(t *testing.T) (*sim.Scheduler, *Ring) {
	t.Helper()
	sched := sim.NewScheduler()
	r := New(sched, DefaultConfig())
	return sched, r
}

func TestWireTime2000Bytes(t *testing.T) {
	_, r := newTestRing(t)
	// With no station attached only the cable adds latency; each
	// attached station adds its repeat delay.
	if got := r.WireTime(2000); got != 4*sim.Millisecond+CableLatency {
		t.Fatalf("2000 bytes at 4 Mbit/s should take 4 ms plus the cable, got %v", got)
	}
	r.Attach("a")
	r.Attach("b")
	if got := r.WireTime(2000); got != 4*sim.Millisecond+CableLatency+2*StationLatency {
		t.Fatalf("2000 bytes past 2 stations should take 4 ms plus the cable and 2 repeats, got %v", got)
	}
}

func TestPointToPointDelivery(t *testing.T) {
	sched, r := newTestRing(t)
	tx := r.Attach("tx")
	rx := r.Attach("rx")

	var gotFrame *Frame
	var gotAt sim.Time
	rx.OnReceive(func(f *Frame, at sim.Time) { gotFrame, gotAt = f, at })

	var status DeliveryStatus
	tx.Transmit(NewDataFrame(tx.Addr(), rx.Addr(), 0, 2000, nil, "payload"), func(s DeliveryStatus) { status = s })
	sched.Run()

	if gotFrame == nil {
		t.Fatal("frame not delivered")
	}
	if gotFrame.Payload != "payload" {
		t.Fatal("payload lost in transit")
	}
	if !status.Delivered || !status.AddrRecognized || !status.FrameCopied {
		t.Fatalf("transmitter should see A and C bits set: %v", status)
	}
	// Minimum latency: token overhead + wire time for 2000 bytes ≈ 4 ms.
	if gotAt < 4*sim.Millisecond || gotAt > 5*sim.Millisecond {
		t.Fatalf("delivery time implausible: %v", gotAt)
	}
}

func TestDeliveryToMissingStation(t *testing.T) {
	sched, r := newTestRing(t)
	tx := r.Attach("tx")
	var status DeliveryStatus
	tx.Transmit(NewDataFrame(tx.Addr(), 99, 0, 100, nil, nil), func(s DeliveryStatus) { status = s })
	sched.Run()
	if status.Delivered || status.AddrRecognized {
		t.Fatalf("no station should have recognized the address: %v", status)
	}
}

func TestRemovedStationDoesNotReceive(t *testing.T) {
	sched, r := newTestRing(t)
	tx := r.Attach("tx")
	rx := r.Attach("rx")
	got := 0
	rx.OnReceive(func(*Frame, sim.Time) { got++ })
	rx.Remove()
	var status DeliveryStatus
	tx.Transmit(NewDataFrame(tx.Addr(), rx.Addr(), 0, 100, nil, nil), func(s DeliveryStatus) { status = s })
	sched.Run()
	if got != 0 || status.Delivered {
		t.Fatal("removed station must not receive")
	}
}

func TestFrameSequencePreserved(t *testing.T) {
	// The paper's requirement: with a single transmitter sending in order,
	// the ring delivers in order.
	sched, r := newTestRing(t)
	tx := r.Attach("tx")
	rx := r.Attach("rx")
	var got []int
	rx.OnReceive(func(f *Frame, _ sim.Time) { got = append(got, f.Payload.(int)) })
	for i := 0; i < 20; i++ {
		tx.Transmit(NewDataFrame(tx.Addr(), rx.Addr(), 0, 500, nil, i), nil)
	}
	sched.Run()
	if len(got) != 20 {
		t.Fatalf("want 20 frames, got %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("frames reordered: %v", got)
		}
	}
}

func TestPriorityPreemptsQueue(t *testing.T) {
	sched, r := newTestRing(t)
	a := r.Attach("low")
	b := r.Attach("high")
	rx := r.Attach("rx")
	var got []string
	rx.OnReceive(func(f *Frame, _ sim.Time) { got = append(got, f.Payload.(string)) })

	// Queue several low-priority frames, then one high-priority frame.
	// The high-priority frame must jump ahead of all queued low ones
	// (but not the frame already on the wire).
	for i := 0; i < 5; i++ {
		a.Transmit(NewDataFrame(a.Addr(), rx.Addr(), 0, 1000, nil, "low"), nil)
	}
	sched.After(sim.Microsecond, func() {
		b.Transmit(NewDataFrame(b.Addr(), rx.Addr(), 5, 1000, nil, "high"), nil)
	})
	sched.Run()
	if len(got) != 6 {
		t.Fatalf("want 6 frames, got %d", len(got))
	}
	if got[1] != "high" {
		t.Fatalf("high-priority frame should be second on the wire, got order %v", got)
	}
}

func TestBroadcastReachesAllExceptSender(t *testing.T) {
	sched, r := newTestRing(t)
	tx := r.Attach("tx")
	n := 0
	for i := 0; i < 5; i++ {
		st := r.Attach("rx")
		st.OnReceive(func(*Frame, sim.Time) { n++ })
	}
	tx.OnReceive(func(*Frame, sim.Time) { t.Error("sender must not receive its own broadcast") })
	tx.Transmit(NewDataFrame(tx.Addr(), Broadcast, 0, 100, nil, nil), nil)
	sched.Run()
	if n != 5 {
		t.Fatalf("broadcast should reach 5 stations, got %d", n)
	}
}

func TestMACFramesOnlyToPromiscuous(t *testing.T) {
	sched, r := newTestRing(t)
	tx := r.Attach("monitor")
	normal := r.Attach("normal")
	promisc := r.Attach("promisc")
	promisc.SetPromiscuousMAC(true)
	nNormal, nPromisc := 0, 0
	normal.OnReceive(func(*Frame, sim.Time) { nNormal++ })
	promisc.OnReceive(func(f *Frame, _ sim.Time) {
		if f.Kind == MAC {
			nPromisc++
		}
	})
	tx.Transmit(NewMACFrame(tx.Addr(), MACActiveMonitorPresent), nil)
	sched.Run()
	if nNormal != 0 {
		t.Fatal("normal adapters strip MAC frames in ROM")
	}
	if nPromisc != 1 {
		t.Fatalf("promiscuous adapter should see MAC frames, got %d", nPromisc)
	}
}

func TestTapSeesEverything(t *testing.T) {
	sched, r := newTestRing(t)
	tx := r.Attach("tx")
	rx := r.Attach("rx")
	_ = rx
	var taps []*Frame
	r.AddTap(func(f *Frame, _, _ sim.Time, _ DeliveryStatus) { taps = append(taps, f) })
	tx.Transmit(NewDataFrame(tx.Addr(), rx.Addr(), 0, 100, nil, nil), nil)
	tx.Transmit(NewMACFrame(tx.Addr(), MACStandbyMonitorPresent), nil)
	sched.Run()
	if len(taps) != 2 {
		t.Fatalf("tap should record data and MAC frames, got %d", len(taps))
	}
}

func TestPurgeLosesInFlightFrameSilently(t *testing.T) {
	sched, r := newTestRing(t)
	tx := r.Attach("tx")
	rx := r.Attach("rx")
	received := 0
	rx.OnReceive(func(*Frame, sim.Time) { received++ })
	var status DeliveryStatus
	tx.Transmit(NewDataFrame(tx.Addr(), rx.Addr(), 0, 2000, nil, nil), func(s DeliveryStatus) { status = s })
	// Purge 1 ms in, while the 2000-byte frame is still on the wire.
	sched.After(sim.Millisecond, r.Purge)
	sched.Run()
	if received != 0 {
		t.Fatal("purged frame must not be delivered")
	}
	if !status.PurgeLost {
		t.Fatalf("status should mark purge loss for the model (hardware hides it): %v", status)
	}
	if c := r.Counters(); c.PurgeLost != 1 || c.PurgeCount != 1 {
		t.Fatalf("purge accounting wrong: %+v", c)
	}
}

func TestPurgeBlocksRingForDuration(t *testing.T) {
	sched, r := newTestRing(t)
	tx := r.Attach("tx")
	rx := r.Attach("rx")
	var deliveredAt sim.Time
	rx.OnReceive(func(_ *Frame, at sim.Time) { deliveredAt = at })
	r.Purge() // at t=0
	tx.Transmit(NewDataFrame(tx.Addr(), rx.Addr(), 0, 100, nil, nil), nil)
	sched.Run()
	if deliveredAt < PurgeDuration {
		t.Fatalf("frame delivered at %v, during the purge outage", deliveredAt)
	}
}

func TestInsertionCausesPurgeBurst(t *testing.T) {
	sched, r := newTestRing(t)
	r.Attach("a")
	r.Insertion(10)
	sched.Run()
	c := r.Counters()
	if c.PurgeCount != 10 {
		t.Fatalf("want 10 purges, got %d", c.PurgeCount)
	}
	if c.InsertionSeen != 1 {
		t.Fatalf("insertion accounting wrong: %+v", c)
	}
	// 10 back-to-back purges ≈ 100 ms outage, matching the paper's
	// explanation of the 120–130 ms points.
	if sched.Now() < 100*sim.Millisecond {
		t.Fatalf("purge burst too short: ended at %v", sched.Now())
	}
}

func TestPurgeEmitsRingPurgeMACFrame(t *testing.T) {
	sched, r := newTestRing(t)
	r.Attach("am")
	macs := 0
	r.AddTap(func(f *Frame, _, _ sim.Time, _ DeliveryStatus) {
		if f.Kind == MAC && f.MAC == MACRingPurge {
			macs++
		}
	})
	r.Purge()
	sched.Run()
	if macs != 1 {
		t.Fatalf("each purge should put a Ring Purge MAC frame on the wire, got %d", macs)
	}
}

func TestCopyGateLeavesCBitClear(t *testing.T) {
	sched, r := newTestRing(t)
	tx := r.Attach("tx")
	rx := r.Attach("rx")
	rx.OnReceive(func(*Frame, sim.Time) { t.Error("gated frame must not be received") })
	rx.SetCopyGate(func() bool { return false })
	var status DeliveryStatus
	tx.Transmit(NewDataFrame(tx.Addr(), rx.Addr(), 0, 100, nil, nil), func(s DeliveryStatus) { status = s })
	sched.Run()
	if !status.AddrRecognized || status.FrameCopied || status.Delivered {
		t.Fatalf("want A set, C clear: %v", status)
	}
	if r.Counters().NotCopied != 1 {
		t.Fatal("NotCopied counter should increment")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	sched, r := newTestRing(t)
	tx := r.Attach("tx")
	rx := r.Attach("rx")
	for i := 0; i < 10; i++ {
		tx.Transmit(NewDataFrame(tx.Addr(), rx.Addr(), 0, 2000, nil, nil), nil)
	}
	sched.Run()
	u := r.Utilization()
	if u < 0.5 || u > 1.0 {
		t.Fatalf("back-to-back frames should keep the ring busy, util=%v", u)
	}
	c := r.Counters()
	if c.FramesSent != 10 || c.BytesSent != 20000 {
		t.Fatalf("counter totals wrong: %+v", c)
	}
}

func TestRoundRobinFairnessWithinPriority(t *testing.T) {
	sched, r := newTestRing(t)
	a := r.Attach("a")
	b := r.Attach("b")
	rx := r.Attach("rx")
	var got []Addr
	rx.OnReceive(func(f *Frame, _ sim.Time) { got = append(got, f.Src) })
	for i := 0; i < 4; i++ {
		a.Transmit(NewDataFrame(a.Addr(), rx.Addr(), 0, 500, nil, nil), nil)
		b.Transmit(NewDataFrame(b.Addr(), rx.Addr(), 0, 500, nil, nil), nil)
	}
	sched.Run()
	if len(got) != 8 {
		t.Fatalf("want 8 frames, got %d", len(got))
	}
	// Neither station should get more than one extra consecutive slot.
	maxRun, run := 1, 1
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 1
		}
	}
	if maxRun > 2 {
		t.Fatalf("round-robin violated, a station ran %d in a row: %v", maxRun, got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []sim.Time {
		sched := sim.NewScheduler()
		r := New(sched, DefaultConfig())
		tx := r.Attach("tx")
		rx := r.Attach("rx")
		var times []sim.Time
		rx.OnReceive(func(_ *Frame, at sim.Time) { times = append(times, at) })
		for i := 0; i < 50; i++ {
			i := i
			sched.At(sim.Time(i)*sim.Millisecond, func() {
				tx.Transmit(NewDataFrame(tx.Addr(), rx.Addr(), 0, 500+i, nil, nil), nil)
			})
		}
		sched.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStationLookupBounds(t *testing.T) {
	_, r := newTestRing(t)
	a, b := r.Attach("a"), r.Attach("b")
	if r.Station(a.Addr()) != a || r.Station(b.Addr()) != b {
		t.Fatal("Station does not return the attached stations")
	}
	for _, addr := range []Addr{0, Broadcast, Addr(r.Stations() + 1)} {
		if st := r.Station(addr); st != nil {
			t.Fatalf("Station(%#x) = %q, want nil", addr, st.Name())
		}
	}
}

// A broadcast and a MAC frame reach every inserted station but their
// sender — here a sender that was removed and reinserted — and skip a
// station that is out of the ring.
func TestBroadcastAndMACSkipOnlySender(t *testing.T) {
	sched, r := newTestRing(t)
	got := map[*Frame][]Addr{}
	var sts []*Station
	for i := 0; i < 6; i++ {
		st := r.Attach("st")
		st.SetPromiscuousMAC(true)
		st.OnReceive(func(f *Frame, _ sim.Time) { got[f] = append(got[f], st.Addr()) })
		sts = append(sts, st)
	}
	sender := sts[2]
	sender.Remove()
	sender.Reinsert(1)
	sts[4].Remove()
	sched.Run() // the insertion's purge and its Ring Purge MAC frame pass
	bc := NewDataFrame(sender.Addr(), Broadcast, 0, 100, nil, nil)
	mac := NewMACFrame(sender.Addr(), MACActiveMonitorPresent)
	sender.Transmit(bc, nil)
	sender.Transmit(mac, nil)
	sched.Run()
	want := []Addr{1, 2, 4, 6}
	for _, f := range []*Frame{bc, mac} {
		if len(got[f]) != len(want) {
			t.Fatalf("%v frame reached %v, want %v", f.Kind, got[f], want)
		}
		for i := range want {
			if got[f][i] != want[i] {
				t.Fatalf("%v frame reached %v, want %v", f.Kind, got[f], want)
			}
		}
	}
}

// TestTokenBits: the access-control byte carries the token bit (0x10)
// and the priority in its low three bits.
func TestTokenBits(t *testing.T) {
	if ac := EncodeAC(3, true); ac != 0x13 {
		t.Fatalf("token at priority 3: AC 0x%02x, want 0x13", ac)
	}
	if ac := EncodeAC(3, false); ac != 0x03 {
		t.Fatalf("frame at priority 3 must not carry the token bit: AC 0x%02x", ac)
	}
	for p := 0; p < 8; p++ {
		if got := int(EncodeAC(p, true) & 0x7); got != p {
			t.Fatalf("priority %d encodes as %d", p, got)
		}
	}
}

// A MAC frame walks only the promiscuous-MAC index. Through promiscuity
// toggles, removals and reinsertions, it must reach exactly the stations,
// in exactly the order, that a walk over every attached station picks:
// inserted, promiscuous and not the sender.
func TestMACReceiversMatchFullWalk(t *testing.T) {
	sched, r := newTestRing(t)
	const n = 12
	var sts []*Station
	var got []Addr
	for i := 0; i < n; i++ {
		st := r.Attach("st")
		st.OnReceive(func(f *Frame, _ sim.Time) {
			if f.MAC == MACActiveMonitorPresent {
				got = append(got, st.Addr())
			}
		})
		sts = append(sts, st)
	}
	for step := 0; step < 60; step++ {
		st := sts[(step*7)%n]
		switch step % 4 {
		case 0, 1:
			st.SetPromiscuousMAC(!st.promiscuousMAC)
		case 2:
			st.Remove()
		case 3:
			if !st.Inserted() {
				st.Reinsert(1)
			}
		}
		sched.Run() // let any insertion's purges pass
		sender := sts[(step*5)%n]
		if !sender.Inserted() {
			continue
		}
		var want []Addr
		for _, s := range sts {
			if s.Inserted() && s.promiscuousMAC && s != sender {
				want = append(want, s.Addr())
			}
		}
		got = got[:0]
		sender.Transmit(NewMACFrame(sender.Addr(), MACActiveMonitorPresent), nil)
		sched.Run()
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: MAC frame from %d reached %v, the full walk gives %v", step, sender.Addr(), got, want)
		}
	}
}
