package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoComesCleanTyped is the typed tier's half of the lint gate:
// the real repository must come clean under mbuflife, so any future
// finding is a genuine ownership regression (or needs a reasoned
// //ctmsvet:allow).
func TestRepoComesCleanTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("typed pass loads the whole module; skipped under -short")
	}
	for _, d := range runRealTree(t, "mbuflife") {
		t.Errorf("repo finding: %s", d)
	}
}

// runRealTree runs the named analyzers over this repository with the
// repo scope. The typed, inter and dim clean-tree tests share one
// type-checked load of the tree.
func runRealTree(t *testing.T, only ...string) []Diagnostic {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	diags, err := RunModule(loadModule(t, root), only...)
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	return diags
}

// runScratch type-checks the scratch module at root and runs the named
// analyzers over it with the repo scope.
func runScratch(t *testing.T, root string, only ...string) []Diagnostic {
	t.Helper()
	mod, err := LoadTypedModule(root)
	if err != nil {
		t.Fatalf("load %s: %v", root, err)
	}
	diags, err := RunModule(mod, only...)
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	return diags
}

// TestInjectedViolationsTyped is the typed acceptance check in reverse:
// a scratch module carrying one of each headline violation — a chain
// leaked on an error path and a double Free — must fail with a
// diagnostic at the exact file and line of each.
func TestInjectedViolationsTyped(t *testing.T) {
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
	// The mbuf stub: mbuflife matches by package name "kernel" and type
	// names Chain/Pool, so a scratch module exercises the real analyzer.
	write("kernel/kernel.go", `// Package kernel stubs the mbuf pool.
package kernel

// Chain is a stub mbuf chain.
type Chain struct {
	Head *byte
	Len  int
	Tag  any
}

// Pool is a stub mbuf pool.
type Pool struct{}

// AllocNoWait returns a chain or nil.
func (p *Pool) AllocNoWait(n int) *Chain {
	if n < 0 {
		return nil
	}
	return &Chain{Len: n}
}

// Free returns the chain to the pool.
func (p *Pool) Free(ch *Chain) { ch.Len = 0 }
`)
	write("leak.go", `package scratch

import (
	"errors"

	"scratch/kernel"
)

// Send allocates a chain and leaks it on the size-check error path.
func Send(p *kernel.Pool, n int) error {
	ch := p.AllocNoWait(n)
	if ch == nil {
		return errors.New("pool exhausted")
	}
	if n > 1500 {
		return errors.New("too big")
	}
	p.Free(ch)
	return nil
}
`)
	write("doublefree.go", `package scratch

import "scratch/kernel"

// Finish allocates and then frees the chain twice.
func Finish(p *kernel.Pool) {
	ch := p.AllocNoWait(64)
	if ch == nil {
		return
	}
	p.Free(ch)
	p.Free(ch)
}
`)
	diags := runScratch(t, root, "mbuflife")
	type want struct {
		analyzer, file string
		line           int
		substr         string
	}
	wants := []want{
		{"mbuflife", "leak.go", 11, "never freed"},
		{"mbuflife", "doublefree.go", 12, "freed again"},
	}
	matched := make([]bool, len(wants))
outer:
	for _, d := range diags {
		for i, w := range wants {
			if matched[i] {
				continue
			}
			if d.Analyzer == w.analyzer && strings.HasSuffix(d.File, w.file) &&
				d.Line == w.line && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("injected %s violation in %s:%d not reported (want %q); got %d diagnostics:\n%s",
				w.analyzer, w.file, w.line, w.substr, len(diags), diagList(diags))
		}
	}
}

// TestModulePackageDirsSkipsNestedModules checks that the walk stops at a
// directory with its own go.mod, as the go tool does: a nested module's
// packages belong to that module, not to the root one.
func TestModulePackageDirsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for rel, content := range map[string]string{
		"go.mod":            "module scratch\n\ngo 1.22\n",
		"root.go":           "package scratch\n",
		"inner/inner.go":    "package inner\n",
		"nested/go.mod":     "module scratch/nested\n\ngo 1.22\n",
		"nested/nested.go":  "package nested\n",
		"nested/sub/sub.go": "package sub\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := modulePackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(dirs, ","); got != ".,inner" {
		t.Fatalf("package dirs = %q, want %q (nested module excluded)", got, ".,inner")
	}
}

func diagList(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}
