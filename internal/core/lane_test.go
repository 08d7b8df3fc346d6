package core

import (
	"testing"

	"repro/internal/sim"
)

// TestTestCaseBQuietBoundaries pins how many of a fixed Test Case B
// window's events are quiet CPU segment ends, fired by the scheduler in
// place without a callback (rtpc.CPU's lane). Fired counts them like any
// other event, so the run's event count cannot show a fall-back to one
// callback per segment; this count does. Both numbers are exact and
// move only if the model's events move.
func TestTestCaseBQuietBoundaries(t *testing.T) {
	cfg := TestCaseB()
	cfg.Duration = 10 * sim.Second
	e := buildEnv(cfg)
	runCTMSP(e)
	const wantFired, wantQuiet = 81027, 38332
	if fired, quiet := e.sched.Fired(), e.sched.QuietFired(); fired != wantFired || quiet != wantQuiet {
		t.Fatalf("Test Case B, 10 s: %d events fired, %d of them quiet; want %d and %d", fired, quiet, wantFired, wantQuiet)
	}
}
