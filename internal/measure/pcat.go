package measure

import "repro/internal/sim"

// PC/AT tool constants (§5.2.3).
const (
	// PCATClockTick is the resolution of the tool's 16-bit clock.
	PCATClockTick = 2 * sim.Microsecond
	// PCATClockBits is the counter width; it wraps every 131.072 ms.
	PCATClockBits = 16
	// PCATMarkerPeriod is the 50 Hz signal tied to channel 8 that lets
	// the decoder count clock rollovers even across quiet stretches.
	PCATMarkerPeriod = 20 * sim.Millisecond
	// PCATMarkerChannel is the input the marker is wired to.
	PCATMarkerChannel = 7 // zero-based: "the eighth parallel input port"
	// PCATLoopMin and PCATLoopMax bound the interrupt-handler polling
	// loop's service time; the 60 µs worst case is the tool's measured
	// error bound.
	PCATLoopMin = 8 * sim.Microsecond
	PCATLoopMax = 60 * sim.Microsecond
	// PCATChannels is the number of 8-bit parallel inputs.
	PCATChannels = 8
)

// pcatWrap is the clock modulus.
const pcatWrap = 1 << PCATClockBits

// PCAT models the two-machine PC/AT measurement rig. Instrumented kernel
// code writes a 7-bit value to a channel and toggles the strobe line;
// the tool's polling loop timestamps it with the 2 µs clock after a
// service delay bounded by the loop's execution time. Each measurement
// point has its own channel: point p strobes channel p.
//
// The tool is external: it costs the measured machines nothing (the
// in-line port write is folded into the instrumented code's existing
// costs), but its own service loop adds up to ±60 µs of timestamp error
// and its clock quantizes to 2 µs — exactly the error budget §5.2.3
// derives.
//
// Each record is decoded as it is captured: a 16-bit clock value lower
// than the previous record's is a rollover, and the 50 Hz marker
// guarantees a record per 20 ms, so no 131 ms rollover period passes
// unobserved — exactly why the paper wired the timer to the eighth port.
// Each point's sample goes to the sink; the rig keeps no record stream.
type PCAT struct {
	sched   *sim.Scheduler
	rng     *sim.RNG
	sink    Sink
	clock   pcatClock
	records int
	lastAt  sim.Time // service times are monotone: the loop reads in order
	marker  *sim.Repeater
}

// NewPCAT powers on the rig, handing its samples to sink. The 50 Hz
// marker starts immediately.
func NewPCAT(sched *sim.Scheduler, seed int64, sink Sink) *PCAT {
	p := &PCAT{sched: sched, rng: sim.NewRNG(sim.ForkSeed(seed, "pcat-loop")), sink: sink}
	p.marker = sched.Every(PCATMarkerPeriod, func() {
		p.capture(PCATMarkerChannel, 1, 0) // the timer input needs no service delay draw
	})
	return p
}

// Stop halts the marker (end of a measurement run).
func (p *PCAT) Stop() { p.marker.Stop() }

// Record implements Recorder: the instrumented code writes the last 7
// bits of the packet number to the point's channel and toggles the
// strobe line. The polling loop picks it up after its current iteration
// completes.
func (p *PCAT) Record(point Point, num uint32) {
	sim.Checkf(point >= 0 && point < NumPoints, "bad point %d", point)
	delay := p.rng.Uniform(PCATLoopMin, PCATLoopMax)
	p.capture(int(point), uint8(num&0x7F), delay)
}

func (p *PCAT) capture(channel int, val uint8, delay sim.Time) {
	at := p.sched.Now() + delay
	// The polling loop services strobes strictly in arrival order: a
	// strobe cannot be read before one queued earlier.
	if at < p.lastAt {
		at = p.lastAt
	}
	p.lastAt = at
	p.records++
	t := p.clock.time(uint16(at / PCATClockTick % pcatWrap))
	if channel < int(NumPoints) {
		p.sink.Add(Point(channel), Sample{Num: uint32(val), T: t})
	}
}

// Records reports how many records the rig captured (what the second
// PC/AT saved to disk), markers included.
func (p *PCAT) Records() int { return p.records }

// pcatClock rebuilds absolute times from the wrapped 16-bit clock values
// of the records in capture order.
type pcatClock struct {
	wraps int64
	prev  uint16
}

// time returns the absolute time of the next record's clock value:
// whenever the value decreases, a rollover happened.
func (c *pcatClock) time(clock16 uint16) sim.Time {
	if clock16 < c.prev {
		c.wraps++
	}
	c.prev = clock16
	return sim.Time(c.wraps*pcatWrap+int64(clock16)) * PCATClockTick
}
