//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Real-run allocation budgets. AllocsPerRun microtests pin single layers
// on hand-built rigs; these pin whole runs, so a per-frame allocation
// that only appears when the layers meet (a closure in a handler, a
// per-packet record that never returns to its pool) still fails a test.
//
// Each budget is measured over a warmed window: the scenario runs at two
// durations, and the difference between the runs — mallocs over fired
// events — is the cost of the extra simulated time alone. Set-up and
// warm-up (pools and program buffers growing to their high-water marks)
// are identical in both runs and cancel out. The race detector's
// instrumentation allocates, so this file is built without it.

// steadyAllocsPerEvent builds the scenario at two durations, measures
// only the run each build returns, and reports the allocations per fired
// event of the difference.
func steadyAllocsPerEvent(t *testing.T, short, long sim.Time, build func(sim.Time) (run func())) float64 {
	t.Helper()
	measure := func(d sim.Time) (mallocs, fired uint64) {
		run := build(d)
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0, f0 := ms.Mallocs, sim.TotalFired()
		run()
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - m0, sim.TotalFired() - f0
	}
	m1, f1 := measure(short)
	m2, f2 := measure(long)
	if f2 <= f1 {
		t.Fatalf("the long run fired %d events, the short one %d: no window to measure", f2, f1)
	}
	per := float64(int64(m2)-int64(m1)) / float64(f2-f1)
	t.Logf("window: %d events, %d mallocs, %.4f allocs/event", f2-f1, int64(m2)-int64(m1), per)
	return per
}

// The budgets sit about a quarter above what the run measures today
// (TestCaseB ≈0.16, the E20 mesh ≈0.09 and E17's nine-stream session
// ≈0.16 allocations per event; before the per-frame path was made
// allocation-free the first two were ≈1.08 and ≈2.03).
// What is left is listed in ROADMAP.md: ctmsp's per-packet Outgoing and
// header capture, ring frames, and the inet and core activity closures.
const (
	testCaseBAllocBudget  = 0.20
	e20MeshAllocBudget    = 0.12
	e17SessionAllocBudget = 0.20
)

func TestTestCaseBAllocationBudget(t *testing.T) {
	per := steadyAllocsPerEvent(t, 20*sim.Second, 60*sim.Second, func(d sim.Time) func() {
		cfg := TestCaseB()
		cfg.Duration = d
		return func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per > testCaseBAllocBudget {
		t.Fatalf("TestCaseB allocates %.4f times per event in steady state, budget %.2f", per, testCaseBAllocBudget)
	}
}

func TestE20MeshAllocationBudget(t *testing.T) {
	per := steadyAllocsPerEvent(t, 600*sim.Millisecond, 1200*sim.Millisecond, func(d sim.Time) func() {
		n, err := topo.Build(E20Topology(e20Side, SweepSeed(1991, 20), d))
		if err != nil {
			t.Fatal(err)
		}
		return func() { n.Run(1) }
	})
	if per > e20MeshAllocBudget {
		t.Fatalf("the E20 mesh allocates %.4f times per event in steady state, budget %.2f", per, e20MeshAllocBudget)
	}
}

// TestE17SessionAllocationBudget covers the multi-stream session window:
// E17's knee point, nine admitted 347 kbit/s streams sharing one ring.
func TestE17SessionAllocationBudget(t *testing.T) {
	per := steadyAllocsPerEvent(t, 5*sim.Second, 15*sim.Second, func(d sim.Time) func() {
		cfg := session.Config{
			Name:           "e17-09",
			Seed:           SweepSeed(1991, 9),
			Duration:       d,
			BackgroundUtil: 0.05,
			Streams:        e17Streams(9),
		}
		return func() {
			if _, err := session.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per > e17SessionAllocBudget {
		t.Fatalf("E17's nine-stream session allocates %.4f times per event in steady state, budget %.2f", per, e17SessionAllocBudget)
	}
}
