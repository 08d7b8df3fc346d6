// Package sim stubs the simulation core.
package sim

import "time"

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

// Wall reads the host clock: the determinism finding.
func Wall() int64 { return time.Now().UnixNano() }

// Allowed reads the host clock under a reasoned allow.
func Allowed() int64 {
	//ctmsvet:allow determinism the golden module keeps one suppressed read
	return time.Now().UnixNano()
}

// Keys collects map keys in iteration order: the map-range finding.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
