package analyzers

import "testing"

// The interprocedural fixtures are a real, compiling mini-module
// (testdata/inter, module interfix) with a stub sim package whose
// Scheduler and RNG carry the //ctmsvet:shardowned annotations.

func TestShardownedFixture(t *testing.T) {
	runModuleFixture(t, "inter", "shardowned", Shardowned)
}

func TestSeedflowFixture(t *testing.T) {
	runModuleFixture(t, "inter", "seedflow", Seedflow)
}

func TestBarrierFixture(t *testing.T) {
	runModuleFixture(t, "inter", "barrier", Barrier)
}

func TestBarrierFloorFixture(t *testing.T) {
	runModuleFixture(t, "inter", "barrierfloor", Barrier)
}

// TestCrossingDirectiveFixture: malformed //ctmsvet:crossing directives
// are reported in every package an inter analyzer runs over, whichever
// inter analyzer it is.
func TestCrossingDirectiveFixture(t *testing.T) {
	runModuleFixture(t, "inter", "directives", Shardowned)
}
