package analyzers

import "testing"

// The typed fixtures are a real, compiling mini-module
// (testdata/typed, module typedfix) with a stub kernel package.

func TestMbuflifeFixture(t *testing.T) {
	runModuleFixture(t, "typed", "mbuflife", Mbuflife)
}
