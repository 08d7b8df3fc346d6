package measure

import (
	"repro/internal/kernel"
	"repro/internal/rtpc"
	"repro/internal/sim"
)

// PseudoDevClockGranularity is the RT/PC system clock step the in-kernel
// recorder could read (§5.2.1).
const PseudoDevClockGranularity = 122 * sim.Microsecond

// PseudoDevRecordCost is the CPU time each time-stamping procedure call
// steals from the machine being measured — the interaction that made this
// "a poor method of recording data" but a great debugging aid.
const PseudoDevRecordCost = 18 * sim.Microsecond

// PseudoDev is the pseudo-device-driver recorder of §5.2.1: it runs on
// the machine under test, quantizes timestamps to the 122 µs system
// clock, and perturbs the system by the cost of every recording call.
// It cannot observe the IRQ line (P1) — that point is hardware-only.
type PseudoDev struct {
	k       *kernel.Kernel
	sink    Sink
	dropped uint64
}

// NewPseudoDev opens the pseudo device on machine k; its samples go to
// sink.
func NewPseudoDev(k *kernel.Kernel, sink Sink) *PseudoDev { return &PseudoDev{k: k, sink: sink} }

// Record implements Recorder: quantized timestamp plus a recording cost
// injected into the measured machine's CPU at interrupt level.
func (d *PseudoDev) Record(p Point, num uint32) {
	if p == P1VCAIRQ {
		d.dropped++ // software cannot see the IRQ line itself
		return
	}
	now := d.k.Sched().Now()
	quantized := now / PseudoDevClockGranularity * PseudoDevClockGranularity
	d.sink.Add(p, Sample{Num: num, T: quantized})
	// The recording procedure itself runs on the measured CPU.
	d.k.CPU().Submit(kernel.LevelNet, []rtpc.Seg{rtpc.Do(PseudoDevRecordCost)}, nil)
}

// Dropped reports events the tool could not observe.
func (d *PseudoDev) Dropped() uint64 { return d.dropped }
