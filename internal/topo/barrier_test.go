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
// GOMAXPROCS (they park at once). Each goroutine records the generation
// it is entering; on leaving await it checks that no peer is still
// behind it, i.e. that the barrier never releases a generation before
// its last arrival. The first goroutine to see a violation keeps
// releasing the barrier until its peers have left, so a broken barrier
// fails the test instead of hanging it; a barrier that strands a parked
// worker hangs it. `make race-shards` runs it under the race detector.
func TestBarrierGenerations(t *testing.T) {
	const generations = 10000
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		n    int
		spin bool
	}{{procs, true}, {procs + 2, false}} {
		t.Run(fmt.Sprintf("n=%d/procs=%d", tc.n, procs), func(t *testing.T) {
			bar := newBarrier(tc.n)
			if spins := bar.spin > 0; spins != tc.spin {
				t.Fatalf("newBarrier(%d) with GOMAXPROCS %d: spin=%d, want spinning %v", tc.n, procs, bar.spin, tc.spin)
			}
			entered := make([]atomic.Uint64, tc.n)
			var failed atomic.Bool
			var left atomic.Int64
			// release frees every peer still in await, until all the
			// others have left the loop.
			release := func() {
				for left.Load() < int64(tc.n-1) {
					bar.mu.Lock()
					bar.arrived = 0
					bar.gen.Add(1)
					bar.cond.Broadcast()
					bar.mu.Unlock()
					runtime.Gosched()
				}
			}
			var wg sync.WaitGroup
			wg.Add(tc.n)
			for i := range tc.n {
				go func() {
					defer wg.Done()
					defer left.Add(1)
					for g := uint64(1); g <= generations && !failed.Load(); g++ {
						entered[i].Store(g)
						bar.await()
						for j := range entered {
							if e := entered[j].Load(); e < g {
								if failed.CompareAndSwap(false, true) {
									t.Errorf("worker %d left generation %d while worker %d was still in %d", i, g, j, e)
									release()
								}
								return
							}
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
		})
	}
}
