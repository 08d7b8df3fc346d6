package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoComesCleanInter is the interprocedural tier's half of the
// lint gate: the real repository — with the genuine //ctmsvet:shardowned
// and //ctmsvet:crossing annotations on the engine — must come clean, so
// any future finding is a real ownership, seed-flow or barrier
// regression (or needs a reasoned //ctmsvet:allow).
func TestRepoComesCleanInter(t *testing.T) {
	if testing.Short() {
		t.Skip("interprocedural pass loads the whole module; skipped under -short")
	}
	for _, d := range runRealTree(t, "shardowned", "seedflow", "barrier") {
		t.Errorf("repo finding: %s", d)
	}
}

// TestInjectedViolationsInter is ISSUE 8's acceptance check in reverse:
// a scratch module shaped like the engine — sim-critical internal/sim
// and internal/topo packages — carrying a planted cross-shard store, a
// literal-seeded RNG, and a sub-floor deliverAt, each of which must be
// reported at its exact file and line.
func TestInjectedViolationsInter(t *testing.T) {
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
	// The sim stub: seedflow matches NewRNG by package name "sim", and
	// the shardowned annotation rides on the type declarations exactly
	// as in the real tree.
	write("internal/sim/sim.go", `// Package sim stubs the simulation core.
package sim

// Time is simulated time.
type Time int64

// Scheduler owns a shard's clock.
//
//ctmsvet:shardowned
type Scheduler struct {
	now Time
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// RNG is a deterministic variate source.
//
//ctmsvet:shardowned
type RNG struct {
	seed int64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG { return &RNG{seed: seed} }
`)
	write("internal/topo/engine.go", `// Package topo stubs the sharded engine.
package topo

import "scratch/internal/sim"

// shard is one worker's slice of the simulation.
//
//ctmsvet:shardowned
type shard struct {
	sched *sim.Scheduler
	rng   *sim.RNG
}

// stolen is the planted cross-shard escape: shard state in a global.
var stolen *shard

type msg struct{ v int }

type inbox struct {
	msgs []msg
}

// put is the blessed crossing with the planted sub-floor deliverAt at
// its call site below.
//
//ctmsvet:crossing push scratch fixture enqueue
func (b *inbox) put(at sim.Time, m msg) {
	_ = at
	b.msgs = append(b.msgs, m)
}

// validate keeps rule 5 quiet so the deliverAt finding stands alone.
func validate(latency sim.Time) bool {
	const switchCost = sim.Time(180)
	return latency >= switchCost
}

func badSeed() *sim.RNG {
	return sim.NewRNG(99)
}

func badPush(b *inbox, s *shard, m msg) {
	b.put(s.sched.Now(), m)
}
`)

	diags := runScratch(t, root, "shardowned", "seedflow", "barrier")
	type want struct {
		analyzer, file string
		line           int
		substr         string
	}
	wants := []want{
		{"shardowned", filepath.Join("internal", "topo", "engine.go"), 15, "can reach shardowned state"},
		{"seedflow", filepath.Join("internal", "topo", "engine.go"), 39, "literal seed"},
		{"barrier", filepath.Join("internal", "topo", "engine.go"), 43, "adds no latency"},
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
			t.Errorf("injected %s violation at %s:%d not reported (want %q); got %d diagnostics:\n%s",
				w.analyzer, w.file, w.line, w.substr, len(diags), diagList(diags))
		}
	}
}
