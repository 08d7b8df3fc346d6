package topo

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBarrierGenerations drives the round barrier through 10,000
// generations in both of its regimes: as many workers as GOMAXPROCS
// (early arrivals spin before they park) and more workers than
// GOMAXPROCS (they park at once), plus the one-party barrier a serial
// Run uses. Each goroutine writes the generation it is entering, with a
// plain store, before it arrives. The action checks that it runs exactly
// once per generation and that it sees every arrival's write for that
// generation (so it runs only after the last arrival); each goroutine,
// on leaving await, checks that the action for its generation has
// already run. The first check to fail starts a releaser that keeps
// bumping the generation until every goroutine has left, so a broken
// barrier fails the test instead of hanging it; a barrier that strands
// a parked worker hangs it. `make race-shards` runs it under the race
// detector, which also reports an action that reads a write the barrier
// did not order before it.
func TestBarrierGenerations(t *testing.T) {
	const generations = 10000
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		n    int
		spin bool
	}{{procs, true}, {procs + 2, false}, {1, true}} {
		t.Run(fmt.Sprintf("n=%d/procs=%d", tc.n, procs), func(t *testing.T) {
			var (
				wg     sync.WaitGroup
				failed atomic.Bool
				left   atomic.Int64
				runs   atomic.Uint64 // generations the action has closed
				bar    *barrier
			)
			wrote := make([]uint64, tc.n) // wrote[i]: worker i's generation, plain stores
			// fail reports once and starts the releaser, which frees
			// every goroutine still in await until all have left.
			fail := func(format string, args ...any) {
				if !failed.CompareAndSwap(false, true) {
					return
				}
				t.Errorf(format, args...)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for left.Load() < int64(tc.n) {
						bar.mu.Lock()
						bar.arrived = 0
						bar.gen.Add(1)
						bar.cond.Broadcast()
						bar.mu.Unlock()
						runtime.Gosched()
					}
				}()
			}
			bar = newBarrier(tc.n, func() {
				if failed.Load() {
					return
				}
				g := runs.Load() + 1
				for j, w := range wrote {
					if w != g {
						fail("action %d saw worker %d in generation %d", g, j, w)
						return
					}
				}
				runs.Store(g)
			})
			if spins := bar.spin > 0; spins != tc.spin {
				t.Fatalf("newBarrier(%d) with GOMAXPROCS %d: spin=%d, want spinning %v", tc.n, procs, bar.spin, tc.spin)
			}
			wg.Add(tc.n)
			for i := range tc.n {
				go func() {
					defer wg.Done()
					defer left.Add(1)
					for g := uint64(1); g <= generations && !failed.Load(); g++ {
						wrote[i] = g
						bar.await()
						if r := runs.Load(); r < g && !failed.Load() {
							fail("worker %d left generation %d before its action ran (%d actions)", i, g, r)
						}
					}
				}()
			}
			wg.Wait()
			if failed.Load() {
				return
			}
			if got := bar.gen.Load(); got != generations {
				t.Fatalf("barrier generation %d after %d rounds", got, generations)
			}
			if got := runs.Load(); got != generations {
				t.Fatalf("action ran %d times in %d generations", got, generations)
			}
		})
	}
}
