package router

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ctmsp"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// twoRingRig: a source on ring 0, a sink on ring 1, a router between.
type twoRingRig struct {
	sched  *sim.Scheduler
	r0, r1 *ring.Ring
	rt     [2]*Half
	srcDrv *tradapter.Driver
	dstDrv *tradapter.Driver
}

func newTwoRings(t *testing.T) *twoRingRig {
	t.Helper()
	sched := sim.NewScheduler()
	cfg := ring.DefaultConfig()
	r0 := ring.New(sched, cfg)
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	r1 := ring.New(sched, cfg2)
	rt := NewPair("router", r0, r1, 9)

	srcDrv := tradapter.NewHost(r0, "src", 9, tradapter.DefaultConfig())
	dstCfg := tradapter.DefaultConfig()
	dstCfg.DMABufferKind = rtpc.SystemMemory
	dstDrv := tradapter.NewHost(r1, "dst", 9, dstCfg)
	return &twoRingRig{sched: sched, r0: r0, r1: r1, rt: rt, srcDrv: srcDrv, dstDrv: dstDrv}
}

// send pushes one CTMSP packet from src toward dst via the router.
func (rig *twoRingRig) send(num uint32, size int) {
	pool := rig.srcDrv.Kernel().Pool
	ch := pool.AllocNoWait(size)
	ch.Tag = ctmsp.Header{PacketNum: num, Length: uint32(size)}
	p := &tradapter.Outgoing{
		Chain:      ch,
		Size:       size,
		Class:      tradapter.ClassCTMSP,
		Dst:        rig.rt[0].Station().Addr(),
		RoutedDst:  rig.dstDrv.Station().Addr(),
		RoutedRing: 2,
		Done:       func(ring.DeliveryStatus) { pool.Free(ch) },
	}
	rig.srcDrv.Output(p)
}

func TestRouterForwardsAcrossRings(t *testing.T) {
	rig := newTwoRings(t)
	var got []uint32
	rig.dstDrv.SetHandler(tradapter.ClassCTMSP, func(rcv *tradapter.Received) []rtpc.Seg {
		out := rcv.Frame.Payload.(*tradapter.Outgoing)
		got = append(got, out.Chain.Tag.(ctmsp.Header).PacketNum)
		rcv.Release()
		return nil
	})
	for i := 0; i < 10; i++ {
		rig.send(uint32(i), 2000)
	}
	rig.sched.RunUntil(2 * sim.Second)
	if len(got) != 10 {
		t.Fatalf("forwarded %d/10", len(got))
	}
	for i, n := range got {
		if n != uint32(i) {
			t.Fatalf("order broken across the router: %v", got)
		}
	}
	a, b := rig.rt[0].Stats(), rig.rt[1].Stats()
	if a.Forwarded != 10 || b.Injected != 10 || a.Dropped+b.Dropped != 0 {
		t.Fatalf("router stats: %+v %+v", a, b)
	}
}

// TestRouterDropsUnroutable sends the router frames it cannot place: one
// with no routed ring (RoutedRing 0 means the frame is local to its
// ring, so a router has no business receiving it) and one claiming its
// final ring is the one it arrived on.
func TestRouterDropsUnroutable(t *testing.T) {
	rig := newTwoRings(t)
	for _, routedRing := range []int{0, 1} {
		ch := rig.srcDrv.Kernel().Pool.AllocNoWait(500)
		ch.Tag = ctmsp.Header{}
		rig.srcDrv.Output(&tradapter.Outgoing{
			Chain:      ch,
			Size:       500,
			Class:      tradapter.ClassCTMSP,
			Dst:        rig.rt[0].Station().Addr(),
			RoutedDst:  rig.dstDrv.Station().Addr(),
			RoutedRing: routedRing,
		})
	}
	rig.sched.RunUntil(sim.Second)
	if st := rig.rt[0].Stats(); st.Dropped != 2 || st.Forwarded != 0 {
		t.Fatalf("unroutable frames should drop: %+v", st)
	}
}

// TestRouterKeepsUpWithCTMSRate answers footnote 5's question: a
// 166 KB/s stream of 2000-byte packets every 12 ms across the router.
func TestRouterKeepsUpWithCTMSRate(t *testing.T) {
	rig := newTwoRings(t)
	var delivered int
	var lastAt sim.Time
	rig.dstDrv.SetHandler(tradapter.ClassCTMSP, func(rcv *tradapter.Received) []rtpc.Seg {
		delivered++
		lastAt = rcv.At
		rcv.Release()
		return nil
	})
	n := 0
	rep := rig.sched.Every(12*sim.Millisecond, func() {
		rig.send(uint32(n), 2000)
		n++
	})
	rig.sched.RunUntil(10 * sim.Second)
	rep.Stop()
	rig.sched.RunUntil(11 * sim.Second)

	if delivered < n-2 {
		t.Fatalf("router fell behind: %d/%d delivered", delivered, n)
	}
	// Steady state: the last packet arrives within a bounded pipeline
	// delay of its send (2 ring hops ≈ 22 ms + forwarding).
	sentAt := sim.Time(n) * 12 * sim.Millisecond
	if lag := lastAt - sentAt; lag > 40*sim.Millisecond {
		t.Fatalf("queueing delay grew: last packet lagged %v", lag)
	}
	// Router CPU must be sustainable.
	util := float64(rig.rt[0].Kernel().CPU().Stats().BusyTime) / float64(rig.sched.Now())
	if util > 0.5 {
		t.Fatalf("router CPU unsustainable: %.2f", util)
	}
	t.Logf("router: delivered %d/%d, cpu %.1f%%", delivered, n, 100*util)
}

func TestRouterBidirectional(t *testing.T) {
	rig := newTwoRings(t)
	var atSrc, atDst int
	rig.dstDrv.SetHandler(tradapter.ClassCTMSP, func(rcv *tradapter.Received) []rtpc.Seg {
		atDst++
		rcv.Release()
		return nil
	})
	rig.srcDrv.SetHandler(tradapter.ClassCTMSP, func(rcv *tradapter.Received) []rtpc.Seg {
		atSrc++
		rcv.Release()
		return nil
	})
	rig.send(1, 1000)
	// And one the other way.
	ch := rig.dstDrv.Kernel().Pool.AllocNoWait(1000)
	ch.Tag = ctmsp.Header{PacketNum: 2}
	rig.dstDrv.Output(&tradapter.Outgoing{
		Chain:      ch,
		Size:       1000,
		Class:      tradapter.ClassCTMSP,
		Dst:        rig.rt[1].Station().Addr(),
		RoutedDst:  rig.srcDrv.Station().Addr(),
		RoutedRing: 1,
	})
	rig.sched.RunUntil(2 * sim.Second)
	if atDst != 1 || atSrc != 1 {
		t.Fatalf("bidirectional forwarding: src=%d dst=%d", atSrc, atDst)
	}
	if a, b := rig.rt[0].Stats(), rig.rt[1].Stats(); a.Forwarded != 1 || b.Forwarded != 1 {
		t.Fatalf("per-port accounting: %+v %+v", a, b)
	}
	if rig.rt[0].Kernel() != rig.rt[1].Kernel() {
		t.Fatal("the two halves of one router must share its machine")
	}
}

// TestNewPairNeedsOneScheduler: the pair's one machine runs on r0's
// scheduler, so rings on two schedulers are a set-up error.
func TestNewPairNeedsOneScheduler(t *testing.T) {
	r0 := ring.New(sim.NewScheduler(), ring.DefaultConfig())
	r1 := ring.New(sim.NewScheduler(), ring.DefaultConfig())
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "different schedulers") {
			t.Fatalf("NewPair on two schedulers: recovered %q, want the scheduler invariant", msg)
		}
	}()
	NewPair("router", r0, r1, 9)
}

// TestHalfEnvelopePoolReuses pins the split bridge's pooled egress: the
// envelope a recycle returns is the envelope the next Inject reuses, its
// permanent chain shell rides along, and the steady-state get/put cycle
// allocates nothing. (The two-phase recycle that decides WHEN putEnv
// runs is tradapter's; here we pin the pool itself.)
func TestHalfEnvelopePoolReuses(t *testing.T) {
	sched := sim.NewScheduler()
	rg := ring.New(sched, ring.DefaultConfig())
	h := NewHalf("half", rg, 0, 2, 9)

	e1 := h.getEnv()
	if e1.out.Chain == nil || e1.out.Done == nil || e1.recycle == nil {
		t.Fatal("cold-path envelope missing its permanent chain shell, Done or recycle hook")
	}
	ch1 := e1.out.Chain
	e1.out.Chain.Tag = "stale"
	e1.out.RoutedRing = 2
	e1.out.Capture = e1.capture[:4]
	h.putEnv(e1)
	e2 := h.getEnv()
	if e2 != e1 || e2.out.Chain != ch1 {
		t.Fatalf("pool built a fresh envelope instead of reusing: %p vs %p", e2, e1)
	}
	if e2.out.Chain.Tag != nil || e2.out.RoutedRing != 0 || e2.out.Dst != 0 || e2.out.Capture != nil {
		t.Fatalf("recycled envelope not cleared: %+v", e2.out)
	}
	h.putEnv(e2)

	if n := testing.AllocsPerRun(200, func() {
		h.putEnv(h.getEnv())
	}); n != 0 {
		t.Fatalf("envelope get/put cycle allocates %.1f per op; want 0", n)
	}
}

// TestHalfIngressDoesNotAllocate runs a split bridge's ingress handler
// and the actions of the program it returns: the program is built in
// the half's scratch and the hand-off mark comes from a pooled record,
// so a warm forwarded frame allocates nothing.
func TestHalfIngressDoesNotAllocate(t *testing.T) {
	sched := sim.NewScheduler()
	rg := ring.New(sched, ring.DefaultConfig())
	h := NewHalf("half", rg, 0, 2, 9)
	var got Forwarded
	forwarded := 0
	h.Forward = func(f Forwarded) {
		got = f
		forwarded++
	}
	out := &tradapter.Outgoing{Chain: &kernel.Chain{Tag: "payload"}, RoutedDst: 5, RoutedRing: 2}
	f := ring.NewDataFrame(1, h.Station().Addr(), 4, 1500+tradapter.RingOverhead, nil, out)
	rcv := &tradapter.Received{Frame: f, Class: tradapter.ClassCTMSP, Size: 1500,
		Buffer: rtpc.NewBuffer("rx", rtpc.SystemMemory, 4096)}
	ingress := func() {
		for _, seg := range h.ingress(tradapter.ClassCTMSP, rcv) {
			if seg.Fn != nil { // the release mark is inert on this hand-built Received
				seg.Fn()
			}
		}
	}
	ingress()
	if allocs := testing.AllocsPerRun(200, ingress); allocs != 0 {
		t.Fatalf("warm Half.ingress allocated %v times, want 0", allocs)
	}
	if forwarded != 202 || got.DstRing != 1 || got.Dst != 5 || got.Size != 1500 || got.Tag != "payload" {
		t.Fatalf("forwarded %d frames, last %+v", forwarded, got)
	}
}

// TestForwardedCarriesCaptureByValue overwrites the source envelope's
// capture bytes once the ingress half has handed the frame on, as the
// source does when it reuses the envelope for its next packet. The frame
// Inject puts on the far ring must still carry the original bytes.
func TestForwardedCarriesCaptureByValue(t *testing.T) {
	rig := newTwoRings(t)
	var capture [ctmsp.HeaderSize]byte
	ctmsp.Header{DstDevice: 1, PacketNum: 77, Length: 1500}.Encode(&capture)
	want := bytes.Clone(capture[:])

	inject := rig.rt[1].Inject
	rig.rt[0].Forward = func(f Forwarded) {
		for i := range capture {
			capture[i] = 0xFF
		}
		inject(f)
	}
	var got []byte
	rig.dstDrv.SetHandler(tradapter.ClassCTMSP, func(rcv *tradapter.Received) []rtpc.Seg {
		got = bytes.Clone(rcv.Frame.Capture)
		rcv.Release()
		return nil
	})
	pool := rig.srcDrv.Kernel().Pool
	ch := pool.AllocNoWait(1500)
	rig.srcDrv.Output(&tradapter.Outgoing{
		Chain:      ch,
		Size:       1500,
		Class:      tradapter.ClassCTMSP,
		Dst:        rig.rt[0].Station().Addr(),
		RoutedDst:  rig.dstDrv.Station().Addr(),
		RoutedRing: 2,
		Capture:    capture[:],
		Done:       func(ring.DeliveryStatus) { pool.Free(ch) },
	})
	rig.sched.RunUntil(sim.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("far ring received capture %x, the source sent %x", got, want)
	}
}
