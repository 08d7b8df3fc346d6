package analyzers

import (
	"path/filepath"
	"sync"
	"testing"
)

// The dim fixtures are a real, compiling mini-module (testdata/dim,
// module dimfix), loaded once and shared across tests. The solver always
// runs module-wide; each test scopes reporting to its own fixture
// package, mirroring how the repo run scopes to the sim-critical
// packages.
var (
	dimFixtureOnce sync.Once
	dimFixtureMod  *Module
	dimFixtureErr  error
)

func loadDimFixture(t *testing.T) *Module {
	t.Helper()
	dimFixtureOnce.Do(func() {
		dimFixtureMod, dimFixtureErr = LoadTypedModule(filepath.Join("testdata", "dim"))
	})
	if dimFixtureErr != nil {
		t.Fatalf("load dim fixture module: %v", dimFixtureErr)
	}
	return dimFixtureMod
}

func runDimFixture(t *testing.T, pkgPath string) {
	t.Helper()
	mod := loadDimFixture(t)
	tp := mod.pkgs["dimfix/"+pkgPath]
	if tp == nil {
		t.Fatalf("fixture package dimfix/%s not loaded", pkgPath)
	}
	diags := RunDim(mod, map[string]bool{tp.Dir: true})
	matchWants(t, diags, parseWants(t, tp.Package))
}

// TestDimConflictFixture: a byte-seeded value crossing a call boundary
// into a bit-seeded parameter is a conflict at the call site.
func TestDimConflictFixture(t *testing.T) {
	runDimFixture(t, "conflict")
}

// TestDimBlessedFixture: *8 and /8 convert between bytes and bits; the
// bare assignment without either still conflicts.
func TestDimBlessedFixture(t *testing.T) {
	runDimFixture(t, "blessed")
}

// TestDimNamingFixture: dimensions seeded from names alone catch every
// bit/byte slip at an assignment, sum, return, call argument and
// composite field, and a visible *8 or /8 clears each one.
func TestDimNamingFixture(t *testing.T) {
	runDimFixture(t, "naming")
}

// TestDimPolyFixture: untyped constants adapt to the slot they land in
// and never manufacture a conflict between two differently-dimensioned
// slots.
func TestDimPolyFixture(t *testing.T) {
	runDimFixture(t, "poly")
}

// TestDimDirectiveFixture: malformed //ctmsvet:unit directives are
// validated whenever the package is in scope.
func TestDimDirectiveFixture(t *testing.T) {
	runDimFixture(t, "directives")
}

// TestDimStringRoundTrip: Dim.String renders every dimension in the
// exact grammar ParseDim accepts, so annotations echoed in diagnostics
// can be pasted back into directives.
func TestDimStringRoundTrip(t *testing.T) {
	cases := []string{
		"1", "bit", "byte", "s", "frame", "sample",
		"bit/s", "byte/s", "s/byte", "1/s", "bit/frame",
		"byte/s/frame", "bit*s", "s^2", "bit/s^2", "byte^3/s^2",
	}
	for _, want := range cases {
		d, err := ParseDim(want)
		if err != nil {
			t.Fatalf("ParseDim(%q): %v", want, err)
		}
		got := d.String()
		if got != want {
			t.Errorf("ParseDim(%q).String() = %q, want round-trip", want, got)
		}
		back, err := ParseDim(got)
		if err != nil {
			t.Errorf("ParseDim(%q) (rendered): %v", got, err)
		} else if back != d {
			t.Errorf("round-trip %q -> %q -> different dim", want, got)
		}
	}
	// hz normalizes to 1/s: the renderer never emits hz, and the parsed
	// values agree.
	hz, err := ParseDim("hz")
	if err != nil {
		t.Fatalf("ParseDim(hz): %v", err)
	}
	if hz.String() != "1/s" {
		t.Errorf("ParseDim(hz).String() = %q, want 1/s", hz.String())
	}
}
