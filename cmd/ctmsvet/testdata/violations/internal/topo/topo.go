// Package topo stubs the sharded engine.
package topo

import "violations/internal/sim"

// shard is one worker's slice of the simulation.
//
//ctmsvet:shardowned
type shard struct {
	sched *sim.Scheduler
	rng   *sim.RNG
}

// stolen is shard state in a global: the shardowned finding.
var stolen *shard

type msg struct{ v int }

type inbox struct {
	msgs []msg
}

// put is a blessed crossing.
//
//ctmsvet:crossing push golden fixture enqueue
func (b *inbox) put(at sim.Time, m msg) {
	_ = at
	b.msgs = append(b.msgs, m)
}

// peek carries a crossing directive with an unknown role.
//
//ctmsvet:crossing bogus the role is not push, drain or peek
func (b *inbox) peek() int { return len(b.msgs) }

// count carries a crossing directive with no reason.
//
//ctmsvet:crossing drain
func (b *inbox) count() int { return len(b.msgs) }

// validate keeps the latency-floor rule quiet.
func validate(latency sim.Time) bool {
	const switchCost = sim.Time(180)
	return latency >= switchCost
}

// badSeed builds an RNG from a literal: the seedflow finding.
func badSeed() *sim.RNG {
	return sim.NewRNG(99)
}

// badPush delivers with no added latency: the barrier finding.
func badPush(b *inbox, s *shard, m msg) {
	b.put(s.sched.Now(), m)
}

// Budget tracks reserved ring capacity.
type Budget struct {
	ReservedBits int64
	SpareBits    int64
}

// Frame is a wire frame.
type Frame struct {
	PayloadBytes int64
}

// charge stores bytes where bits are owed: the sim-critical dim
// finding.
func charge(b *Budget, f Frame) {
	b.ReservedBits = f.PayloadBytes
}

// spare does the same under a reasoned allow.
func spare(b *Budget, f Frame) {
	b.SpareBits = f.PayloadBytes //ctmsvet:allow dim the golden module keeps one suppressed conflict
}
