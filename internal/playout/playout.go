// Package playout models the presentation-side buffer of a continuous
// media receiver: after an initial prebuffer delay it consumes the stream
// at a constant byte rate. It is the quantity §6's conclusion is about
// ("the buffer space needed for 150 KBytes/sec CTMSP data transfer is
// under 25 KBytes") and is shared by the single-stream experiment runner
// (internal/core) and the multi-stream session layer (internal/session).
package playout

import (
	"fmt"

	"repro/internal/sim"
)

// Stats summarizes the presentation-side buffer behaviour.
type Stats struct {
	// Glitches counts underruns: moments the converter was starved.
	Glitches uint64
	// StarvedTime is total time spent with an empty buffer after
	// playback began.
	StarvedTime sim.Time
	// MaxBufferBytes is the high-water mark of buffered data.
	MaxBufferBytes int
	// BytesPlayed is total data consumed by the converter.
	BytesPlayed int64
	// Delivered counts packets that reached the playout buffer.
	Delivered uint64
}

// EvGlitch is the structured trace kind for a playout underrun: A = the
// cumulative glitch count, B = the shortfall in bytes. Kind block 32–47
// belongs to playout.
const EvGlitch sim.EventKind = 32

func init() { sim.RegisterEventKind(EvGlitch, "playout.glitch") }

// Playout models the digital-to-audio subsystem: after an initial
// prebuffer delay it consumes the stream at a constant byte rate; an
// arriving-packet history plus analytic drain between events gives exact
// underrun and high-water accounting without per-byte events.
//
//ctmsvet:shardowned
type Playout struct {
	bytesPerSec float64
	prebuffer   sim.Time
	trace       *sim.Trace

	started  bool
	playAt   sim.Time // when consumption begins
	lastT    sim.Time
	buffer   float64
	starved  bool
	starvedA sim.Time

	stats Stats
}

// SetTrace attaches a structured trace that records each underrun.
// Playout has no scheduler reference, so the trace is wired explicitly;
// a nil trace (the default) costs one pointer test per glitch.
func (p *Playout) SetTrace(t *sim.Trace) { p.trace = t }

// New creates the model. rateBytesPerSec is the stream's consumption
// rate; prebuffer delays playback after the first packet.
func New(rateBytesPerSec float64, prebuffer sim.Time) *Playout {
	sim.Checkf(rateBytesPerSec > 0, "playout rate must be positive")
	return &Playout{bytesPerSec: rateBytesPerSec, prebuffer: prebuffer}
}

// drainTo advances the consumption clock to t.
func (p *Playout) drainTo(t sim.Time) {
	if !p.started || t <= p.lastT {
		return
	}
	from := p.lastT
	if from < p.playAt {
		from = p.playAt
	}
	if t <= from {
		p.lastT = t
		return
	}
	need := p.bytesPerSec * (t - from).Seconds()
	if need <= p.buffer {
		p.buffer -= need
		p.stats.BytesPlayed += int64(need)
		if p.starved {
			p.starved = false
		}
	} else {
		// Underrun: played what we had, starved for the rest.
		p.stats.BytesPlayed += int64(p.buffer)
		shortfall := need - p.buffer
		p.buffer = 0
		starvedFor := sim.Time(shortfall / p.bytesPerSec * float64(sim.Second))
		p.stats.StarvedTime += starvedFor
		if !p.starved {
			p.stats.Glitches++
			p.starved = true
			p.starvedA = t
			p.trace.AddEvent(t, EvGlitch, int64(p.stats.Glitches), int64(shortfall))
		}
	}
	p.lastT = t
}

// Deliver adds n stream bytes arriving at time t.
func (p *Playout) Deliver(n int, t sim.Time) {
	sim.Checkf(n >= 0, "negative delivery")
	if !p.started {
		p.started = true
		p.playAt = t + p.prebuffer
		p.lastT = t
	}
	p.drainTo(t)
	p.buffer += float64(n)
	p.stats.Delivered++
	if int(p.buffer) > p.stats.MaxBufferBytes {
		p.stats.MaxBufferBytes = int(p.buffer)
	}
}

// Finish drains up to the end-of-run time and returns the stats.
func (p *Playout) Finish(t sim.Time) Stats {
	p.drainTo(t)
	return p.stats
}

// BufferBytes reports the current occupancy.
func (p *Playout) BufferBytes() int { return int(p.buffer) }

// String summarizes the playout state.
func (p *Playout) String() string {
	return fmt.Sprintf("playout{buffer=%dB max=%dB glitches=%d}", int(p.buffer), p.stats.MaxBufferBytes, p.stats.Glitches)
}
