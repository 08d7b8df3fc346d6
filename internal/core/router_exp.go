package core

import (
	"repro/internal/ctmsp"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tradapter"
)

// e14Run is what one E14 simulation observed: the stream's end-to-end
// accounting, the router's CPU time and the scheduler's event count.
type e14Run struct {
	sent, delivered uint64
	lat             *stats.Histogram
	routerBusy      sim.Time
	elapsed         sim.Time
	fired           uint64
}

// runE14 implements footnote 5's deferred problem: put a store-and-
// forward router between the transmitter and receiver and see whether it
// keeps up with the CTMS rate. The paper says "this is possible but has
// not been implemented"; here it is.
func runE14(s Scale) *Comparison {
	c := &Comparison{}
	run := simulateE14(s)
	sent, delivered, lat := run.sent, run.delivered, run.lat
	frac := float64(delivered) / float64(sent)
	c.addf("166 KB/s across the router", "possible but not implemented (fn 5)",
		frac > 0.999, "%.4f delivered (%d/%d)", frac, delivered, sent)
	c.addf("added latency vs single ring", "a second hop's worth",
		within(lat.Mean(), 18_000, 30_000), "mean %.0f µs (single ring ≈10 900)", lat.Mean())
	util := float64(run.routerBusy) / float64(run.elapsed)
	c.addf("router CPU at the CTMS rate", "must keep up",
		util < 0.5, "%.1f%%", 100*util)
	c.addf("latency stability", "bounded queueing",
		lat.Max() < lat.Min()+25_000, "spread [%.0f, %.0f] µs", lat.Min(), lat.Max())
	return c
}

// simulateE14 runs the two-ring stream once: one 2000-byte CTMSP packet
// every 12 ms from ring 0 to ring 1 through the router.
func simulateE14(s Scale) e14Run {
	dur := 2 * sim.Minute
	if s.Duration > 0 {
		dur = s.Duration
	}
	seed := int64(1991)
	if s.Seed != 0 {
		seed = s.Seed
	}

	sched := sim.NewScheduler()
	rc0 := ring.DefaultConfig()
	rc0.Seed = seed
	r0 := ring.New(sched, rc0)
	rc1 := rc0
	rc1.Seed = seed + 1
	r1 := ring.New(sched, rc1)
	rt := router.NewPair("router", r0, r1, seed)

	mk := func(name string, rg *ring.Ring, kind rtpc.MemoryKind) *tradapter.Driver {
		cfg := tradapter.DefaultConfig()
		cfg.DMABufferKind = kind
		return tradapter.NewHost(rg, name, seed, cfg)
	}
	srcDrv := mk("src", r0, rtpc.IOChannelMemory)
	dstDrv := mk("dst", r1, rtpc.SystemMemory)
	srcK := srcDrv.Kernel()

	// The 166 KB/s CTMS stream: one 2000-byte packet per 12 ms.
	lat := stats.NewHistogram(100, "src→dst latency across router")
	var sent, delivered uint64
	sentAt := map[uint32]sim.Time{}
	dstDrv.SetHandler(tradapter.ClassCTMSP, func(rcv *tradapter.Received) []rtpc.Seg {
		out := rcv.Frame.Payload.(*tradapter.Outgoing)
		h, ok := out.Chain.Tag.(ctmsp.Header)
		if !ok {
			rcv.Release()
			return nil
		}
		if t0, ok := sentAt[h.PacketNum]; ok {
			lat.Add((rcv.At - t0).Microseconds())
			delete(sentAt, h.PacketNum)
			delivered++
		}
		rcv.Release()
		return nil
	})
	var n uint32
	rep := sched.Every(12*sim.Millisecond, func() {
		ch := srcK.Pool.AllocNoWait(2000)
		if ch == nil {
			return
		}
		num := n
		n++
		ch.Tag = ctmsp.Header{PacketNum: num, Length: 2000}
		sentAt[num] = sched.Now()
		sent++
		pool := srcK.Pool
		srcDrv.Output(&tradapter.Outgoing{
			Chain:      ch,
			Size:       2000,
			Class:      tradapter.ClassCTMSP,
			Dst:        rt[0].Station().Addr(),
			RoutedDst:  dstDrv.Station().Addr(),
			RoutedRing: 2,
			Done:       func(ring.DeliveryStatus) { pool.Free(ch) },
		})
	})
	sched.RunUntil(dur)
	rep.Stop()
	sched.RunUntil(dur + 200*sim.Millisecond)

	return e14Run{
		sent:       sent,
		delivered:  delivered,
		lat:        lat,
		routerBusy: rt[0].Kernel().CPU().Stats().BusyTime,
		elapsed:    sched.Now(),
		fired:      sched.Fired(),
	}
}
