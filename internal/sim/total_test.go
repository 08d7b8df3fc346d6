package sim

import (
	"sync"
	"testing"
)

// TestTotalsExactUnderConcurrentSchedulers drives many schedulers from
// concurrent goroutines — each stepped by thousands of short RunUntil
// windows, the shard-runner pattern — and checks the process-wide totals
// advance by exactly the sum of the per-scheduler work, both with the
// default per-call flush and with deferred flushing.
func TestTotalsExactUnderConcurrentSchedulers(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		const (
			shards   = 8
			windows  = 500
			window   = Time(2 * Millisecond)
			duration = Time(windows) * window
		)
		simBefore := TotalSimulated()
		firedBefore := TotalFired()

		fired := make([]uint64, shards)
		var wg sync.WaitGroup
		wg.Add(shards)
		for i := 0; i < shards; i++ {
			go func(i int) {
				defer wg.Done()
				s := NewScheduler()
				s.DeferMetricsFlush(deferred)
				s.Every(300*Microsecond, func() {})
				for k := 1; k <= windows; k++ {
					s.RunUntil(Time(k) * window)
				}
				if deferred {
					s.FlushMetrics()
				}
				fired[i] = s.Fired()
			}(i)
		}
		wg.Wait()

		wantSim := Time(shards) * duration
		if got := TotalSimulated() - simBefore; got != wantSim {
			t.Errorf("deferred=%v: TotalSimulated advanced by %v, want %v", deferred, got, wantSim)
		}
		var wantFired uint64
		for _, f := range fired {
			wantFired += f
		}
		if got := TotalFired() - firedBefore; got != wantFired {
			t.Errorf("deferred=%v: TotalFired advanced by %d, want %d", deferred, got, wantFired)
		}
	}
}

// TestDeferMetricsFlush checks the deferral contract: a deferred
// scheduler publishes nothing until FlushMetrics (or turning deferral
// off), and never double-counts.
func TestDeferMetricsFlush(t *testing.T) {
	base := TotalSimulated()
	s := NewScheduler()
	s.DeferMetricsFlush(true)
	s.RunUntil(Second)
	if got := TotalSimulated() - base; got != 0 {
		t.Fatalf("deferred RunUntil published %v; want 0 until FlushMetrics", got)
	}
	s.FlushMetrics()
	if got := TotalSimulated() - base; got != Second {
		t.Fatalf("after FlushMetrics totals advanced by %v; want %v", got, Second)
	}
	s.FlushMetrics() // idempotent: no progress since the last flush
	if got := TotalSimulated() - base; got != Second {
		t.Fatalf("second FlushMetrics changed totals to %v; want %v", got, Second)
	}
	s.RunUntil(2 * Second)
	s.DeferMetricsFlush(false) // turning deferral off flushes immediately
	if got := TotalSimulated() - base; got != 2*Second {
		t.Fatalf("after DeferMetricsFlush(false) totals advanced by %v; want %v", got, 2*Second)
	}
}
