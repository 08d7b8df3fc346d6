package sim

import "sync/atomic"

// Process-wide accounting of simulated work, aggregated across every
// scheduler in the process — the main experiment runs, the session
// layer's per-run schedulers, and any mini-sims tests spin up. ctmsbench
// records their deltas over a matrix run as its exact sim_seconds and
// events counts.
//
// Each scheduler flushes deltas (not absolutes) when a Run/RunUntil call
// returns, so a scheduler driven by repeated RunUntil calls — the session
// layer's pattern — is counted exactly once per simulated nanosecond.
var (
	totalSimulated atomic.Int64
	totalFired     atomic.Uint64
)

// TotalSimulated reports the simulated time advanced by all schedulers in
// this process since start.
func TotalSimulated() Time { return Time(totalSimulated.Load()) }

// TotalFired reports the events dispatched by all schedulers in this
// process since start.
func TotalFired() uint64 { return totalFired.Load() }

// flushMetrics publishes this scheduler's progress since the last flush
// into the process-wide totals. Called from the Run/RunUntil epilogue —
// never per event, so the atomics stay off the hot loop.
//
// The watermark delta accounting is per-scheduler state, so any number of
// schedulers may flush concurrently (the totals are atomics) and each
// simulated nanosecond is still counted exactly once: a scheduler driven
// by repeated RunUntil calls — the session layer's pattern, and every
// shard of a windowed topo run — publishes only what it advanced since
// its own last flush.
func (s *Scheduler) flushMetrics() {
	if s.deferFlush {
		return
	}
	s.FlushMetrics()
}

// FlushMetrics publishes progress into the process-wide totals now,
// regardless of the defer setting. Engines that own deferred schedulers
// call this once per shard when the run completes.
func (s *Scheduler) FlushMetrics() {
	if d := s.now - s.flushedNow; d > 0 {
		totalSimulated.Add(int64(d))
		s.flushedNow = s.now
	}
	if d := s.fired - s.flushedFired; d > 0 {
		totalFired.Add(d)
		s.flushedFired = s.fired
	}
}

// DeferMetricsFlush controls whether Run/RunUntil publish progress into
// the process-wide totals on return (the default) or leave it to an
// explicit FlushMetrics call. A windowed shard run steps its scheduler
// with thousands of short RunUntil calls per simulated second; deferring
// keeps those barriers from turning into contended cross-shard atomic
// traffic. Turning deferral off flushes immediately so no progress is
// ever lost.
func (s *Scheduler) DeferMetricsFlush(on bool) {
	s.deferFlush = on
	if !on {
		s.FlushMetrics()
	}
}
