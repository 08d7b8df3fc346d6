package router

import (
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
	rt     *Router
	srcK   *kernel.Kernel
	srcDrv *tradapter.Driver
	dstK   *kernel.Kernel
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
	rt := New(sched, "router", r0, r1, 9)

	mk := func(name string, rg *ring.Ring) (*kernel.Kernel, *tradapter.Driver) {
		m := rtpc.NewMachine(sched, name, rtpc.DefaultCostModel(), 9)
		k := kernel.New(m)
		st := rg.Attach(name)
		c := tradapter.DefaultConfig()
		if name != "src" {
			c.DMABufferKind = rtpc.SystemMemory
		}
		drv := tradapter.New(k, st, c, tradapter.DefaultTiming())
		k.Register(drv)
		return k, drv
	}
	srcK, srcDrv := mk("src", r0)
	dstK, dstDrv := mk("dst", r1)
	rt.AddRoute(0, dstDrv.Station().Addr(), 1)
	return &twoRingRig{sched: sched, r0: r0, r1: r1, rt: rt, srcK: srcK, srcDrv: srcDrv, dstK: dstK, dstDrv: dstDrv}
}

// send pushes one CTMSP packet from src toward dst via the router.
func (rig *twoRingRig) send(num uint32, size int) {
	ch := rig.srcK.Pool.AllocNoWait(size)
	ch.Tag = ctmsp.Header{PacketNum: num, Length: uint32(size)}
	pool := rig.srcK.Pool
	p := &tradapter.Outgoing{
		Chain:     ch,
		Size:      size,
		Class:     tradapter.ClassCTMSP,
		Dst:       rig.rt.Port(0).Driver.Station().Addr(),
		RoutedDst: rig.dstDrv.Station().Addr(),
		Done:      func(ring.DeliveryStatus) { pool.Free(ch) },
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
	st := rig.rt.Stats()
	if st.Forwarded[0] != 10 || st.Dropped != 0 {
		t.Fatalf("router stats: %+v", st)
	}
}

func TestRouterDropsUnroutable(t *testing.T) {
	rig := newTwoRings(t)
	ch := rig.srcK.Pool.AllocNoWait(500)
	ch.Tag = ctmsp.Header{}
	rig.srcDrv.Output(&tradapter.Outgoing{
		Chain:     ch,
		Size:      500,
		Class:     tradapter.ClassCTMSP,
		Dst:       rig.rt.Port(0).Driver.Station().Addr(),
		RoutedDst: 250, // no route
	})
	rig.sched.RunUntil(sim.Second)
	if rig.rt.Stats().Dropped != 1 {
		t.Fatalf("unroutable frame should drop: %+v", rig.rt.Stats())
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
	util := float64(rig.rt.Kernel().CPU().Stats().BusyTime) / float64(rig.sched.Now())
	if util > 0.5 {
		t.Fatalf("router CPU unsustainable: %.2f", util)
	}
	t.Logf("router: delivered %d/%d, cpu %.1f%%", delivered, n, 100*util)
}

func TestRouterBidirectional(t *testing.T) {
	rig := newTwoRings(t)
	// Add the reverse route and a responder on ring 1.
	rig.rt.AddRoute(1, rig.srcDrv.Station().Addr(), 0)

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
	ch := rig.dstK.Pool.AllocNoWait(1000)
	ch.Tag = ctmsp.Header{PacketNum: 2}
	rig.dstDrv.Output(&tradapter.Outgoing{
		Chain:     ch,
		Size:      1000,
		Class:     tradapter.ClassCTMSP,
		Dst:       rig.rt.Port(1).Driver.Station().Addr(),
		RoutedDst: rig.srcDrv.Station().Addr(),
	})
	rig.sched.RunUntil(2 * sim.Second)
	if atDst != 1 || atSrc != 1 {
		t.Fatalf("bidirectional forwarding: src=%d dst=%d", atSrc, atDst)
	}
	st := rig.rt.Stats()
	if st.Forwarded[0] != 1 || st.Forwarded[1] != 1 {
		t.Fatalf("per-port accounting: %+v", st)
	}
}

// TestHalfEnvelopePoolReuses pins the split bridge's pooled egress: the
// envelope a recycle returns is the envelope the next Inject reuses, its
// permanent chain shell rides along, and the steady-state get/put cycle
// allocates nothing. (The two-phase recycle that decides WHEN putEnv
// runs is tradapter's; here we pin the pool itself.)
func TestHalfEnvelopePoolReuses(t *testing.T) {
	sched := sim.NewScheduler()
	rg := ring.New(sched, ring.DefaultConfig())
	h := NewHalf(sched, "half", rg, 0, 2, 9)

	e1 := h.getEnv()
	if e1.Chain == nil || e1.Done == nil {
		t.Fatal("cold-path envelope missing its permanent chain shell or Done")
	}
	ch1 := e1.Chain
	e1.Chain.Tag = "stale"
	e1.RoutedRing = 2
	h.putEnv(e1)
	e2 := h.getEnv()
	if e2 != e1 || e2.Chain != ch1 {
		t.Fatalf("pool built a fresh envelope instead of reusing: %p vs %p", e2, e1)
	}
	if e2.Chain.Tag != nil || e2.RoutedRing != 0 || e2.Dst != 0 {
		t.Fatalf("recycled envelope not cleared: %+v", e2)
	}
	h.putEnv(e2)

	if n := testing.AllocsPerRun(200, func() {
		h.putEnv(h.getEnv())
	}); n != 0 {
		t.Fatalf("envelope get/put cycle allocates %.1f per op; want 0", n)
	}
}
