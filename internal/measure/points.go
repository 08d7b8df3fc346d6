// Package measure reproduces the paper's measurement toolchain (§5):
//
//   - a logic analyzer — the zero-overhead ground truth used to validate
//     everything else,
//   - the in-kernel pseudo-device timestamper, whose 122 µs clock and
//     in-system recording cost perturb what it measures,
//   - the purpose-built IBM PC/AT parallel-port tool: eight 8-bit
//     channels, a 2 µs 16-bit wrapping clock, a 50 Hz marker on channel 8
//     so the decoder can count clock rollovers, and a 10–60 µs polling
//     loop whose service time is the tool's measurement error,
//   - the TAP ring monitor recording every frame's control bytes, length
//     and first 96 bytes,
//   - and the analysis that turns recorded samples into the seven
//     histograms of §5.3 as they arrive.
package measure

import (
	"fmt"

	"repro/internal/sim"
)

// Point identifies one of the paper's four measurement points.
type Point int

const (
	// P1VCAIRQ is the VCA adapter's Interrupt Request line edge.
	P1VCAIRQ Point = iota
	// P2HandlerEntry is entry into the VCA's interrupt handler.
	P2HandlerEntry
	// P3PreTransmit is immediately after the packet is copied into the
	// fixed DMA buffer, immediately before the transmit command.
	P3PreTransmit
	// P4RxClassified is immediately after the received packet is
	// determined to be a CTMSP packet.
	P4RxClassified
	// NumPoints is the number of measurement points.
	NumPoints
)

func (p Point) String() string {
	switch p {
	case P1VCAIRQ:
		return "P1:vca-irq"
	case P2HandlerEntry:
		return "P2:handler-entry"
	case P3PreTransmit:
		return "P3:pre-transmit"
	case P4RxClassified:
		return "P4:rx-classified"
	}
	return fmt.Sprintf("Point(%d)", int(p))
}

// Sample is one recorded event: the packet (or tick) number it belongs
// to, and a timestamp whose accuracy depends on the tool that recorded
// it. The point is the index of the log it sits in.
type Sample struct {
	Num uint32
	T   sim.Time
}

// Recorder is anything that can be attached to the probe hooks.
type Recorder interface {
	Record(p Point, num uint32)
}

// Sink receives each sample as a tool timestamps it, in time order. A
// run's sink is an Analysis; a tool keeps no log of its own.
type Sink interface {
	Add(p Point, s Sample)
}
