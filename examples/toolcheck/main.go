// toolcheck reproduces §5.2's measurement-tool validation: feed every
// instrument a source the logic analyzer proved perfect (the VCA's 12 ms
// interrupt line) and see what each tool reports. The PC/AT parallel-port
// rig shows its ±120 µs polling spread; the in-kernel pseudo-device shows
// its 122 µs clock quantization.
package main

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/measure"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	const pulses = 5000

	sched := sim.NewScheduler()
	m := rtpc.NewMachine(sched, "host", 1)
	k := kernel.New(m)

	laAn, pcAn, pdAn := measure.NewAnalysis(2), measure.NewAnalysis(2), measure.NewAnalysis(2)
	la := measure.NewLogicAnalyzer(sched, laAn)
	pcat := measure.NewPCAT(sched, 42, pcAn)
	pd := measure.NewPseudoDev(k, pdAn)

	// A perfect 12 ms source, as the logic analyzer verified the VCA to
	// be (±500 ns, §5.2.2). The handler-entry point trails by a fixed
	// 40 µs so the pseudo-device has something it is allowed to see.
	for i := 0; i < pulses; i++ {
		n := uint32(i)
		at := sim.Time(i) * 12 * sim.Millisecond
		sched.At(at, func() {
			la.Record(measure.P1VCAIRQ, n)
			pcat.Record(measure.P1VCAIRQ, n)
		})
		sched.At(at+40*sim.Microsecond, func() {
			la.Record(measure.P2HandlerEntry, n)
			pcat.Record(measure.P2HandlerEntry, n)
			pd.Record(measure.P2HandlerEntry, n)
		})
	}
	sched.RunUntil(pulses * 12 * sim.Millisecond)
	pcat.Stop()

	report := func(tool string, h *stats.Histogram) {
		fmt.Printf("%-16s n=%-6d mean=%9.1fµs  spread=[%0.f, %0.f]  sd=%.1fµs\n",
			tool, h.N(), h.Mean(), h.Min(), h.Max(), h.Stddev())
	}

	fmt.Println("inter-occurrence of a source the logic analyzer proved exact:")
	h := pcAn.Finish().H[measure.H1InterIRQ]
	report("logic analyzer", laAn.Finish().H[measure.H1InterIRQ])
	report("PC/AT rig", h)
	report("pseudo-device", pdAn.Finish().H[measure.H2InterEntry])

	spread := (h.Max() - h.Min()) / 2
	fmt.Printf("\nPC/AT spread ±%.0f µs — the paper measured ±120 µs and derived a\n", spread)
	fmt.Printf("60 µs worst-case polling loop; our model uses %v.\n", measure.PCATLoopMax)
	fmt.Printf("pseudo-device quantization: %v system clock (and every call\n", measure.PseudoDevClockGranularity)
	fmt.Printf("perturbs the machine being measured by %v of CPU).\n", measure.PseudoDevRecordCost)

	// Show the raw PC/AT record stream decoding across clock rollovers.
	fmt.Printf("\nPC/AT raw records: %d (16-bit clock wraps every %v; the 50 Hz\n",
		pcat.Records(), sim.Time(1<<16)*measure.PCATClockTick)
	fmt.Println("marker on channel 8 lets the decoder count rollovers)")
}
