package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoComesCleanDim is the dimensional tier's half of the lint gate:
// the real repository — with the genuine //ctmsvet:unit annotations on
// sim.Time, the admission controller and the per-byte cost models — must
// come clean, so any future finding is a real unit confusion (or needs a
// reasoned //ctmsvet:allow).
func TestRepoComesCleanDim(t *testing.T) {
	if testing.Short() {
		t.Skip("dimensional pass loads the whole module; skipped under -short")
	}
	for _, d := range runRealTree(t, "dim") {
		t.Errorf("repo finding: %s", d)
	}
}

// TestDimDirectiveFuncTargets covers the function-target directive
// validations the fixture cannot: doc-comment attachment is mandatory
// for them, and gofmt would reorder a directive past an adjacent want
// line, so they run over a scratch module no formatter touches.
func TestDimDirectiveFuncTargets(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("internal/sim/sim.go", `// Package sim carries the malformed function directives.
package sim

// Scale has no parameter named count.
//
//ctmsvet:unit byte count
func Scale(n int64) int64 { return n }

// Split has two results, so a bare result target is ambiguous.
//
//ctmsvet:unit byte result
func Split(n int64) (int64, int64) { return n, n }

// Grow is well-formed: the directive names a real parameter.
//
//ctmsvet:unit byte n
func Grow(n int64) int64 { return n + 1 }
`)

	diags := runScratch(t, root, "dim")
	wants := []struct {
		line   int
		substr string
	}{
		{6, `names "count", not a parameter of Scale`},
		{11, "has 2 results"},
	}
	matched := make([]bool, len(wants))
outer:
	for _, d := range diags {
		for i, w := range wants {
			if !matched[i] && d.Line == w.line && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("malformed directive at line %d not reported (want %q); got:\n%s",
				w.line, w.substr, diagList(diags))
		}
	}
}

// TestInjectedViolationsDim is ISSUE 9's acceptance check in reverse: a
// scratch module shaped like the engine carries a planted bytes-to-bits
// assignment two calls away from its seed. The finding must land at the
// exact file and line of the contradicting assignment, and its
// derivation chain must name both hops — the relay's return and the call
// site — so the report reads as a proof, not an accusation.
func TestInjectedViolationsDim(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	// The seed lives in internal/sim; the violation two calls away in
	// internal/topo. Both directories are in the dim tier's scope.
	write("internal/sim/sim.go", `// Package sim stubs the simulation core.
package sim

// Frame is a wire frame.
type Frame struct {
	// PayloadBytes is the payload size on the medium.
	//
	//ctmsvet:unit byte
	PayloadBytes int64
}
`)
	write("internal/topo/engine.go", `// Package topo stubs the capacity ledger.
package topo

import "scratch/internal/sim"

// Budget tracks reserved ring capacity.
type Budget struct {
	//ctmsvet:unit bit
	ReservedBits int64
}

// payload relays the frame's byte count: hop one of the derivation.
func payload(f sim.Frame) int64 {
	return f.PayloadBytes
}

// charge books the frame against the budget; the planted violation
// stores bytes where bits are owed, two calls from the seed.
func charge(b *Budget, f sim.Frame) {
	b.ReservedBits = payload(f)
}
`)

	diags := runScratch(t, root, "dim")
	wantFile := filepath.Join("internal", "topo", "engine.go")
	const wantLine = 20
	var hit *Diagnostic
	for i, d := range diags {
		if d.Analyzer == "dim" && strings.HasSuffix(d.File, wantFile) && d.Line == wantLine {
			hit = &diags[i]
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if hit == nil {
		t.Fatalf("injected byte->bit violation at %s:%d not reported; got %d diagnostics:\n%s",
			wantFile, wantLine, len(diags), diagList(diags))
	}
	if !strings.Contains(hit.Message, "byte value flows into bit slot") {
		t.Errorf("finding does not state the unit clash: %s", hit.Message)
	}
	// The derivation chain must name both hops with their file:line — the
	// seed in sim, the relay's return inside payload, and the call in
	// charge — spanning two functions.
	for _, hop := range []string{
		filepath.Join("internal", "sim", "sim.go") + ":9", // the //ctmsvet:unit byte seed
		wantFile + ":14", // payload's return statement
		"via call to payload [" + wantFile + ":" + "20]", // the call site in charge
	} {
		if !strings.Contains(hit.Message, hop) {
			t.Errorf("derivation chain missing hop %q:\n%s", hop, hit.Message)
		}
	}
}
