package measure

import (
	"fmt"

	"repro/internal/sim"
)

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

// PCATRecord is one queued observation as the second PC/AT saves it to
// disk: which channels had data, the 16-bit clock, and the port values.
type PCATRecord struct {
	Mask    uint8
	Clock16 uint16
	Vals    [PCATChannels]uint8
}

// PCAT models the two-machine PC/AT measurement rig. Instrumented kernel
// code writes a 7-bit value to a channel and toggles the strobe line;
// the tool's polling loop timestamps it with the 2 µs clock after a
// service delay bounded by the loop's execution time.
//
// The tool is external: it costs the measured machines nothing (the
// in-line port write is folded into the instrumented code's existing
// costs), but its own service loop adds up to ±60 µs of timestamp error
// and its clock quantizes to 2 µs — exactly the error budget §5.2.3
// derives.
type PCAT struct {
	sched   *sim.Scheduler
	rng     *sim.RNG
	records []PCATRecord
	lastAt  sim.Time // service times are monotone: the loop reads in order
	marker  *sim.Repeater
	// chanPoint maps channels to measurement points for Recorder use.
	chanPoint [PCATChannels]Point
	wired     [PCATChannels]bool
}

// NewPCAT powers on the rig. The 50 Hz marker starts immediately.
func NewPCAT(sched *sim.Scheduler, seed int64) *PCAT {
	p := &PCAT{sched: sched, rng: sim.NewRNG(seed).Fork("pcat-loop")}
	p.marker = sched.Every(PCATMarkerPeriod, func() {
		p.capture(PCATMarkerChannel, 1, 0) // the timer input needs no service delay draw
	})
	return p
}

// Stop halts the marker (end of a measurement run).
func (p *PCAT) Stop() { p.marker.Stop() }

// Wire connects a measurement point to a channel, so the Recorder
// interface can be used directly by the probe hooks.
func (p *PCAT) Wire(point Point, channel int) {
	sim.Checkf(channel >= 0 && channel < PCATChannels && channel != PCATMarkerChannel,
		"channel %d not usable", channel)
	p.chanPoint[channel] = point
	p.wired[channel] = true
}

// Strobe is the instrumented-code entry: the last 7 bits of the packet
// number are written to the channel and the strobe line is toggled. The
// polling loop picks it up after its current iteration completes.
func (p *PCAT) Strobe(channel int, val uint8) {
	sim.Checkf(channel >= 0 && channel < PCATChannels, "bad channel %d", channel)
	delay := p.rng.Uniform(PCATLoopMin, PCATLoopMax)
	p.capture(channel, val&0x7F, delay)
}

func (p *PCAT) capture(channel int, val uint8, delay sim.Time) {
	at := p.sched.Now() + delay
	// The polling loop services strobes strictly in arrival order: a
	// strobe cannot be read before one queued earlier.
	if at < p.lastAt {
		at = p.lastAt
	}
	p.lastAt = at
	ticks := at / PCATClockTick
	rec := PCATRecord{Mask: 1 << channel, Clock16: uint16(ticks % pcatWrap)}
	rec.Vals[channel] = val
	p.records = append(p.records, rec)
}

// Record implements Recorder for a wired point.
func (p *PCAT) Record(point Point, num uint32) {
	for ch := 0; ch < PCATChannels; ch++ {
		if p.wired[ch] && p.chanPoint[ch] == point {
			p.Strobe(ch, uint8(num&0x7F))
			return
		}
	}
}

// Samples implements Recorder by decoding the raw record stream.
func (p *PCAT) Samples(point Point) []Sample {
	decoded, err := DecodePCAT(p.records)
	if err != nil {
		return nil
	}
	var out []Sample
	for ch := 0; ch < PCATChannels; ch++ {
		if !p.wired[ch] || p.chanPoint[ch] != point {
			continue
		}
		for _, ev := range decoded[ch] {
			out = append(out, Sample{Point: point, Num: uint32(ev.Val), T: ev.T})
		}
	}
	return out
}

// Records exposes the raw stream (what the second PC/AT saved to disk).
func (p *PCAT) Records() []PCATRecord { return p.records }

// PCATEvent is one decoded observation with a reconstructed absolute time.
type PCATEvent struct {
	T   sim.Time
	Val uint8
}

// DecodePCAT reconstructs absolute event times from the wrapped 16-bit
// clock stream. The records are in capture order; whenever the clock
// value decreases, a rollover happened. The 50 Hz marker guarantees at
// least one record per 20 ms, so a 131 ms rollover period can never pass
// unobserved — this is exactly why the paper wired the timer to the
// eighth port.
func DecodePCAT(records []PCATRecord) ([PCATChannels][]PCATEvent, error) {
	var out [PCATChannels][]PCATEvent
	var wraps int64
	var prev uint16
	for i, r := range records {
		if i > 0 && r.Clock16 < prev {
			wraps++
		}
		prev = r.Clock16
		abs := sim.Time(wraps*pcatWrap+int64(r.Clock16)) * PCATClockTick
		if r.Mask == 0 {
			return out, fmt.Errorf("measure: record %d has empty mask", i)
		}
		for ch := 0; ch < PCATChannels; ch++ {
			if r.Mask&(1<<ch) != 0 {
				out[ch] = append(out[ch], PCATEvent{T: abs, Val: r.Vals[ch]})
			}
		}
	}
	return out, nil
}
