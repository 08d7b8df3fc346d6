package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoComesCleanTyped is the typed tier's half of the lint gate:
// the real repository must come clean under mbuflife, locking and
// hotpath, so any future finding is a genuine ownership, lock or
// allocation regression (or needs a reasoned //ctmsvet:allow).
func TestRepoComesCleanTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("typed pass loads the whole module; skipped under -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	diags, err := RunRepoTyped(root)
	if err != nil {
		t.Fatalf("RunRepoTyped: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}

// TestInjectedViolationsTyped is the typed acceptance check in reverse:
// a scratch module carrying one of each headline violation — a chain
// leaked on an error path, a double Free, a guarded-field access
// without the lock, and an allocation in a hotpath function — must
// fail with a diagnostic at the exact file and line of each.
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

// Alloc allocates and hands the chain to fn.
func (p *Pool) Alloc(n int, fn func(*Chain)) {
	fn(&Chain{Len: n})
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
	write("locked.go", `package scratch

import "sync"

type gauge struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Peek reads the guarded field without holding mu.
func (g *gauge) Peek() int {
	return g.n
}
`)
	write("hot.go", `package scratch

import "fmt"

// Describe is on the hot path but allocates via fmt.
//
//ctmsvet:hotpath
func Describe(n int) string {
	return fmt.Sprintf("n=%d", n)
}
`)

	diags, err := RunRepoTyped(root)
	if err != nil {
		t.Fatalf("RunRepoTyped: %v", err)
	}
	type want struct {
		analyzer, file string
		line           int
		substr         string
	}
	wants := []want{
		{"mbuflife", "leak.go", 11, "never freed"},
		{"mbuflife", "doublefree.go", 12, "freed again"},
		{"locking", "locked.go", 12, "guarded by mu, which is not held"},
		{"hotpath", "hot.go", 9, "fmt.Sprintf allocates"},
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
