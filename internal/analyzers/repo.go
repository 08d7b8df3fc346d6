package analyzers

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
)

// SimCriticalPackages are the packages whose code feeds the
// deterministic simulation: everything between a Config and its Results.
// These are the packages whose determinism PR 1's serial-vs-parallel
// matrix test asserts at runtime, so they are the ones the determinism
// analyzer guards at lint time.
var SimCriticalPackages = []string{
	"internal/sim",
	"internal/ring",
	"internal/session",
	"internal/core",
	"internal/playout",
	"internal/ctmsp",
	"internal/lab",
	"internal/router",
	"internal/topo",
	"internal/workload",
	"internal/stats",
	"internal/kernel",
	"internal/rtpc",
	"internal/media",
	"internal/tradapter",
	"internal/vca",
	"internal/measure",
	"internal/dsp",
	"internal/inet",
	"internal/afs",
}

// SimCriticalExemptions names internal packages deliberately outside the
// sim-critical scope, each with the reason the determinism analyzers do
// not apply. TestSimCriticalCoverage walks internal/ and fails when a
// package is in neither set, so the PR-7 failure mode — forgetting to
// enroll a new package, as happened with workload and stats — is
// structurally impossible.
var SimCriticalExemptions = map[string]string{
	"internal/analyzers": "the lint tool itself: runs at lint time, not inside a simulation; iterates maps and reads the filesystem by design",
}

// All lists every syntactic-tier analyzer, for scope policy and
// tooling; AnalyzerNames (typed.go) spans all four tiers.
var All = []*Analyzer{Determinism, Exhaustive}

// selectSyntactic intersects a scope's analyzer list with an -analyzers
// selection; an empty selection means everything.
func selectSyntactic(only []string, as ...*Analyzer) []*Analyzer {
	if len(only) == 0 {
		return as
	}
	var out []*Analyzer
	for _, a := range as {
		for _, n := range only {
			if a.Name == n {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// RunRepo runs the syntactic tier with its repo scoping rules, rooted
// at the module root: determinism over the sim-critical packages only
// (commands and the measurement harness legitimately read the host
// clock); exhaustive over every package, since //ctmsvet:enum
// registration is per-package and self-gating. Every package joining
// the run also gets its //ctmsvet:allow directives validated — a
// typo'd allow in a typed-tier-only package must not rot silently. An
// optional selection restricts which analyzers run; the cross-package
// Index is built from the sim-critical packages either way, so a
// restricted run sees the same index a full run does.
func RunRepo(root string, only ...string) ([]Diagnostic, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("ctmsvet: %s is not a module root (no go.mod)", root)
	}
	if err := SelectNames(only); err != nil {
		return nil, fmt.Errorf("ctmsvet: %w", err)
	}
	simCritical := make(map[string]bool)
	for _, dir := range SimCriticalPackages {
		simCritical[filepath.Join(root, dir)] = true
	}
	dirs, err := modulePackageDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	var targets []Target
	for _, rel := range dirs {
		dir := root
		if rel != "." {
			dir = filepath.Join(root, filepath.FromSlash(rel))
		}
		pkg, err := LoadPackage(fset, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		// exhaustive runs everywhere: it only fires on switches over types
		// a package registered itself (//ctmsvet:enum), so the wider scope
		// costs nothing where nothing is registered
		as := selectSyntactic(only, Exhaustive)
		if simCritical[dir] {
			as = selectSyntactic(only, Determinism, Exhaustive)
			pkgs = append(pkgs, pkg)
		}
		targets = append(targets, NewTarget(pkg, as...))
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("ctmsvet: no Go packages found under %s", root)
	}
	return Run(targets, BuildIndex(pkgs)), nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("ctmsvet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
