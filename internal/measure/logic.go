package measure

import "repro/internal/sim"

// LogicAnalyzer records events with perfect timestamps and zero system
// perturbation — the ground truth. The paper used one to prove the VCA's
// interrupt source was solid (±500 ns) and to bound the PC/AT tool's
// polling-loop error (§5.2.2, §5.2.3).
type LogicAnalyzer struct {
	sched *sim.Scheduler
	sink  Sink
}

// NewLogicAnalyzer creates an analyzer on the given clock that hands its
// samples to sink.
func NewLogicAnalyzer(sched *sim.Scheduler, sink Sink) *LogicAnalyzer {
	return &LogicAnalyzer{sched: sched, sink: sink}
}

// Record implements Recorder with an exact timestamp.
func (l *LogicAnalyzer) Record(p Point, num uint32) {
	l.sink.Add(p, Sample{Num: num, T: l.sched.Now()})
}
