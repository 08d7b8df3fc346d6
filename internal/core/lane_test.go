package core

import (
	"fmt"
	"testing"

	"repro/internal/golden"
	"repro/internal/sim"
)

// TestTestCaseBQuietBoundaries pins how many of a fixed Test Case B
// window's events are quiet CPU segment ends, fired by the scheduler in
// place without a callback (rtpc.CPU's lane). Fired counts them like any
// other event, so the run's event count cannot show a fall-back to one
// callback per segment; this count does. Both numbers are exact and
// move only if the model's events move; testdata/quiet_boundaries.golden
// holds them.
func TestTestCaseBQuietBoundaries(t *testing.T) {
	cfg := TestCaseB()
	cfg.Duration = 10 * sim.Second
	e := buildEnv(cfg)
	runCTMSP(e)
	got := fmt.Sprintf("fired %d\nquiet %d\n", e.sched.Fired(), e.sched.QuietFired())
	golden.Check(t, "testdata/quiet_boundaries.golden", []byte(got))
}
