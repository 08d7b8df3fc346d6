// Package lab fans independent simulation runs across a bounded worker
// pool. Every experiment in the reproduction matrix is a deterministic,
// self-contained discrete-event simulation (its own sim.Scheduler, its own
// seeded sim.RNG), so runs can execute concurrently without perturbing one
// another — the only rule is that each job's inputs (seeds included) must
// be derived from its index before dispatch, and results must be collected
// by index, never by completion order. Pool enforces the second half of
// that contract; callers own the first.
package lab

import (
	"fmt"
	"runtime"
	"sync"
)

// Pool is a bounded worker pool for independent jobs. The zero value is
// not useful; use New.
type Pool struct {
	workers int
}

// New returns a pool that runs at most workers jobs concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Run invokes job(i) for every i in [0, n) across the pool's workers and
// blocks until all have finished. Jobs must write any output to their own
// index in a caller-owned slice: dispatch and completion order are
// unspecified, index identity is the determinism guarantee.
//
// With one worker the jobs run inline, in order, on the calling
// goroutine, so a parallelism-1 pool is byte-for-byte the serial loop it
// replaces (panics propagate directly). With more, a panicking job does
// not abort its siblings: Run finishes the batch and then re-panics the
// lowest-index panic, deterministic regardless of interleaving.
func (p *Pool) Run(n int, job func(i int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}

	idx := make(chan int)
	panics := make([]any, n) // each job writes only its own slot
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				runJob(job, i, panics)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, r := range panics {
		if r != nil {
			panic(fmt.Sprintf("lab: job %d panicked: %v", i, r))
		}
	}
}

func runJob(job func(i int), i int, panics []any) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
		}
	}()
	job(i)
}

// Map runs f over [0, n) on the pool and returns the results collected by
// index, independent of which worker finished first.
func Map[T any](p *Pool, n int, f func(i int) T) []T {
	out := make([]T, n)
	p.Run(n, func(i int) { out[i] = f(i) })
	return out
}
