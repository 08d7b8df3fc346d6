package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the scheduler's three primitive operations —
// schedule, cancel, advance (dispatch) — on the timing wheel and on the
// reference binary heap it replaced (wheel_equiv_test.go), at queue depths
// spanning the simulator's range: 1k (one busy machine), 100k (a full
// session), 1M (the ROADMAP's millions-of-users ambition). The spreads
// cover the wheel's two regimes: nearDelay keeps every event inside the
// horizon, farDelay pushes a slice of them into the overflow heap.
//
// Run with: go test -run '^$' -bench 'Wheel|Heap' -benchmem ./internal/sim

const (
	nearDelay = 400 * Millisecond // inside the ≈537 ms wheel horizon
	farDelay  = 5 * Second        // a 9:1 near:far mix reaches the overflow heap
)

func prefillDelays(n int) []Time {
	rng := rand.New(rand.NewSource(42))
	ds := make([]Time, n)
	for i := range ds {
		if i%10 == 9 {
			ds[i] = Time(rng.Int63n(int64(farDelay)))
		} else {
			ds[i] = Time(rng.Int63n(int64(nearDelay)))
		}
	}
	return ds
}

func eachDepth(b *testing.B, run func(b *testing.B, depth int)) {
	for _, depth := range []int{1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			run(b, depth)
		})
	}
}

// scheduleCancel measures one At + Cancel round trip against a standing
// queue of the given depth — the repeater re-arm and the timeout-that-
// rarely-fires patterns.
func BenchmarkWheelScheduleCancel(b *testing.B) {
	eachDepth(b, func(b *testing.B, depth int) {
		s := NewScheduler()
		for _, d := range prefillDelays(depth) {
			s.At(d, func() {})
		}
		d := 100 * Millisecond
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.At(d, func() {}).Cancel()
		}
	})
}

func BenchmarkHeapScheduleCancel(b *testing.B) {
	eachDepth(b, func(b *testing.B, depth int) {
		s := &refScheduler{}
		for _, d := range prefillDelays(depth) {
			s.at(d, func() {})
		}
		d := 100 * Millisecond
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.at(d, func() {}).cancelled = true
		}
	})
}

// advance measures dispatch throughput: fire-and-rearm until b.N events
// have run, the steady state of every periodic source in the simulator.
func BenchmarkWheelAdvance(b *testing.B) {
	eachDepth(b, func(b *testing.B, depth int) {
		s := NewScheduler()
		var rearm func()
		rearm = func() { s.After(nearDelay/97, rearm) }
		for _, d := range prefillDelays(depth) {
			s.At(d, rearm)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.step(maxTime)
		}
	})
}

func BenchmarkHeapAdvance(b *testing.B) {
	eachDepth(b, func(b *testing.B, depth int) {
		s := &refScheduler{}
		var rearm func()
		rearm = func() { s.at(s.now+nearDelay/97, rearm) }
		for _, d := range prefillDelays(depth) {
			s.at(d, rearm)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.step(maxTime)
		}
	})
}
