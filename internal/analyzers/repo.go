package analyzers

import (
	"fmt"
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
	"internal/tradapter",
	"internal/vca",
	"internal/measure",
	"internal/inet",
}

// SimCriticalExemptions names internal packages deliberately outside the
// sim-critical scope, each with the reason the determinism analyzers do
// not apply. TestSimCriticalCoverage walks internal/ and fails when a
// package is in neither set, so the PR-7 failure mode — forgetting to
// enroll a new package, as happened with workload and stats — is
// structurally impossible.
var SimCriticalExemptions = map[string]string{
	"internal/analyzers": "the lint tool itself: runs at lint time, not inside a simulation; iterates maps and reads the filesystem by design",
	"internal/golden":    "test support: only tests import it, to compare output with pinned files; reads the environment and writes files by design",
}

// repoScope is the repo's reporting rule for the module rooted at
// root: determinism and the inter tier report only in the sim-critical
// packages (commands and the measurement harness legitimately read the
// host clock and spawn goroutines); dim reports in those plus the root
// package, where the public Options/Session API carries the same rates;
// exhaustive and the typed tier report everywhere — exhaustive only
// fires on enums a package registered itself, so the wide scope costs
// nothing where nothing is registered.
func repoScope(root string) func(a *Analyzer, dir string) bool {
	root = filepath.Clean(root)
	simCritical := make(map[string]bool, len(SimCriticalPackages))
	for _, dir := range SimCriticalPackages {
		simCritical[filepath.Join(root, filepath.FromSlash(dir))] = true
	}
	return func(a *Analyzer, dir string) bool {
		switch {
		case a == Determinism || a.Tier == TierInter:
			return simCritical[dir]
		case a.Tier == TierDim:
			return simCritical[dir] || dir == root
		}
		return true
	}
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
