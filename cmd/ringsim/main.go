// Command ringsim is a standalone explorer for the 4 Mbit Token Ring
// model: it sweeps offered load and reports utilization, token wait and
// per-priority delivery latency, demonstrating the access-priority
// behaviour CTMSP depends on.
//
// Usage:
//
//	ringsim -stations 70 -seconds 30
package main

import (
	"flag"
	"fmt"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	var (
		stations = flag.Int("stations", 70, "stations on the ring")
		seconds  = flag.Float64("seconds", 20, "simulated seconds per sweep point")
		size     = flag.Int("size", 1522, "background frame size (bytes)")
		seed     = flag.Int64("seed", 1, "random seed")
		mbit     = flag.Int64("mbit", 4, "ring signalling rate in Mbit/s (4 or 16)")
	)
	flag.Parse()

	fmt.Printf("%d Mbit Token Ring, %d stations, %d-byte background frames\n", *mbit, *stations, *size)
	fmt.Printf("%8s %12s %14s %16s %16s\n", "offered", "utilization", "frames", "lowprio lat(µs)", "hiprio lat(µs)")

	for _, offered := range []float64{0.1, 0.3, 0.5, 0.7, 0.85, 0.95} {
		util, frames, lo, hi := sweep(*stations, *seconds, *size, *seed, offered, *mbit*1_000_000)
		fmt.Printf("%7.0f%% %11.1f%% %14d %16.0f %16.0f\n",
			100*offered, 100*util, frames, lo.Mean(), hi.Mean())
	}
}

// sweep offers `offered` fraction of ring bandwidth as priority-0 frames
// from several stations, plus a probe stream at priority 4, and measures
// queue-to-delivery latency for both.
func sweep(stations int, seconds float64, size int, seed int64, offered float64, bitRate int64) (util float64, frames uint64, lo, hi *stats.Histogram) {
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.Config{BitRate: bitRate, Seed: seed})

	var senders []*ring.Station
	for i := 0; i < stations; i++ {
		senders = append(senders, r.Attach(fmt.Sprintf("st%d", i)))
	}
	dst := r.Attach("sink")
	dst.OnReceive(func(*ring.Frame, sim.Time) {}) // the sink copies every frame

	lo = stats.NewHistogram(100, "low-priority latency")
	hi = stats.NewHistogram(100, "high-priority latency")
	rng := sim.NewRNG(seed)

	// Background: exponential arrivals totalling the offered load.
	frameTime := sim.WireTime(size, bitRate)
	mean := sim.Scale(frameTime, 1/offered)
	var arm func()
	arm = func() {
		sched.After(rng.Exp(mean), func() {
			st := sim.Pick(rng, senders)
			sent := sched.Now()
			st.Transmit(ring.NewDataFrame(st.Addr(), dst.Addr(), 0, size, nil, nil),
				func(s ring.DeliveryStatus) {
					if s.Delivered {
						lo.Add((s.CompletedAt - sent).Microseconds())
					}
				})
			arm()
		})
	}
	arm()

	// Probe: a 2000-byte high-priority frame every 12 ms (the CTMSP
	// pattern).
	probe := senders[0]
	sched.Every(12*sim.Millisecond, func() {
		sent := sched.Now()
		probe.Transmit(ring.NewDataFrame(probe.Addr(), dst.Addr(), 4, 2021, nil, nil),
			func(s ring.DeliveryStatus) {
				if s.Delivered {
					hi.Add((s.CompletedAt - sent).Microseconds())
				}
			})
	})

	sched.RunUntil(sim.Time(seconds * float64(sim.Second)))
	return r.Utilization(), r.Counters().FramesSent, lo, hi
}
