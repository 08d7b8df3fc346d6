package measure

import "repro/internal/sim"

// LogicAnalyzer records events with perfect timestamps and zero system
// perturbation — the ground truth. The paper used one to prove the VCA's
// interrupt source was solid (±500 ns) and to bound the PC/AT tool's
// polling-loop error (§5.2.2, §5.2.3).
type LogicAnalyzer struct {
	sched   *sim.Scheduler
	samples [NumPoints][]Sample
}

// NewLogicAnalyzer creates an analyzer on the given clock.
func NewLogicAnalyzer(sched *sim.Scheduler) *LogicAnalyzer {
	return &LogicAnalyzer{sched: sched}
}

// Record implements Recorder with an exact timestamp.
func (l *LogicAnalyzer) Record(p Point, num uint32) {
	l.samples[p] = append(l.samples[p], Sample{Num: num, T: l.sched.Now()})
}

// Samples implements Recorder.
func (l *LogicAnalyzer) Samples() [NumPoints][]Sample { return l.samples }
