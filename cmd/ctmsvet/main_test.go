package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

// scratchModule writes a tiny module whose root package carries exactly
// one exhaustive violation (a //ctmsvet:enum switch missing a value).
func scratchModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("main.go", `package main

// Phase is a lifecycle enum.
//
//ctmsvet:enum
type Phase int

const (
	Idle Phase = iota
	Running
	Done
)

func describe(p Phase) string {
	switch p {
	case Idle:
		return "idle"
	case Running:
		return "running"
	}
	return "?"
}

func main() { _ = describe(Idle) }
`)
	return dir
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCLIRealTreeComesClean(t *testing.T) {
	root, err := analyzers.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-root", root, "-analyzers", "determinism,exhaustive")
	if code != 0 {
		t.Fatalf("exit %d on the real tree\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("expected no output on a clean tree, got:\n%s", stdout)
	}
}

func TestCLIFindingExitsOne(t *testing.T) {
	dir := scratchModule(t)
	code, stdout, stderr := runCLI(t, "-root", dir, "-analyzers", "determinism,exhaustive")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "switch over Phase misses Done") {
		t.Fatalf("missing finding in output:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Fatalf("missing summary on stderr:\n%s", stderr)
	}
}

func TestCLIAnalyzersFlag(t *testing.T) {
	dir := scratchModule(t)

	// Selecting an analyzer that cannot fire here passes.
	code, _, stderr := runCLI(t, "-root", dir, "-analyzers", "determinism")
	if code != 0 {
		t.Fatalf("exit %d with exhaustive deselected\nstderr:\n%s", code, stderr)
	}

	// Selecting the firing analyzer still fails.
	code, stdout, _ := runCLI(t, "-root", dir, "-analyzers", "exhaustive")
	if code != 1 || !strings.Contains(stdout, "exhaustive:") {
		t.Fatalf("exit %d, stdout:\n%s", code, stdout)
	}

	// Unknown names are a usage error naming the valid set.
	code, _, stderr = runCLI(t, "-root", dir, "-analyzers", "bogus")
	if code != 2 {
		t.Fatalf("exit %d for unknown analyzer, want 2", code)
	}
	if !strings.Contains(stderr, "unknown analyzer") || !strings.Contains(stderr, "mbuflife") {
		t.Fatalf("error should list the valid analyzers:\n%s", stderr)
	}
}

func TestCLIOutArtifact(t *testing.T) {
	dir := scratchModule(t)
	artifact := filepath.Join(t.TempDir(), "ctmsvet.json")
	code, _, _ := runCLI(t, "-root", dir, "-analyzers", "determinism,exhaustive", "-out", artifact)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var diags []analyzers.Diagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		t.Fatalf("artifact is not a diagnostics array: %v\n%s", err, data)
	}
	if len(diags) != 1 || diags[0].Analyzer != "exhaustive" {
		t.Fatalf("unexpected artifact contents: %+v", diags)
	}
}

func TestCLIListFlag(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, name := range analyzers.AnalyzerNames() {
		if !strings.Contains(stdout, name) {
			t.Fatalf("-list output missing %q:\n%s", name, stdout)
		}
	}
	// The four tiers are all represented.
	for _, name := range []string{"determinism", "mbuflife", "shardowned", "seedflow", "barrier", "dim"} {
		if !strings.Contains(stdout, name) {
			t.Fatalf("-list output missing tier representative %q:\n%s", name, stdout)
		}
	}
}

// TestCLISelectionPicksTiers: the -analyzers selection alone decides
// which tiers run — naming seedflow runs the interprocedural tier, and a
// syntactic-only selection drops exactly its findings.
func TestCLISelectionPicksTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a typed module; skipped under -short")
	}
	dir := scratchModule(t)
	// A sim-critical package with a literal-seeded RNG: seedflow fires
	// only when the interprocedural tier runs.
	sim := `// Package sim stubs the core for the CLI test.
package sim

// RNG is a stub variate source.
//
//ctmsvet:shardowned
type RNG struct{ seed int64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG { return &RNG{seed: seed} }

// Default is built from a literal seed: the planted violation.
func Default() *RNG { return NewRNG(1234) }
`
	if err := os.MkdirAll(filepath.Join(dir, "internal", "sim"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "internal", "sim", "sim.go"), []byte(sim), 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI(t, "-root", dir, "-analyzers", "seedflow")
	if code != 1 || !strings.Contains(stdout, "literal seed") {
		t.Fatalf("exit %d, want 1 with a seedflow finding\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}

	code, stdout, _ = runCLI(t, "-root", dir, "-analyzers", "determinism")
	if code != 0 || stdout != "" {
		t.Fatalf("a syntactic-only selection should drop the interprocedural finding; exit %d\n%s", code, stdout)
	}
}

// TestCLISyntacticSelectionSkipsTypedLoad: a selection naming only
// syntactic analyzers never loads the typed module, so it still reports
// on a tree that does not type-check — the property that keeps
// `make lint-fast` a pure-AST pass. A full run over the same tree fails
// in the typed load, proving the fixture really is ill-typed.
func TestCLISyntacticSelectionSkipsTypedLoad(t *testing.T) {
	dir := scratchModule(t)
	broken := "package main\n\nvar mismatch int = \"not an int\"\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(broken), 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI(t, "-root", dir, "-analyzers", "determinism,exhaustive")
	if code != 1 || !strings.Contains(stdout, "switch over Phase misses Done") {
		t.Fatalf("exit %d, want 1 with the exhaustive finding\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}

	code, _, stderr = runCLI(t, "-root", dir)
	if code != 2 || !strings.Contains(stderr, "typed pass") {
		t.Fatalf("exit %d (stderr %q), want 2 from the typed load of an ill-typed tree", code, stderr)
	}
}
