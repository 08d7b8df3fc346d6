package topo

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/session"
	"repro/internal/sim"
)

// randomSpec generates a random internetwork: a spanning tree plus spare
// links, streams of every shape (local, adjacent, multi-hop), bursts
// sized to overflow mbuf pools and bridge queues, and insertions parked
// on or next to window boundaries. Everything derives from the seed.
func randomSpec(seed int64) Spec {
	r := rand.New(rand.NewSource(seed))
	rings := 2 + r.Intn(7) // 2..8
	spec := Spec{
		Name:           fmt.Sprintf("oracle-%d", seed),
		Seed:           seed,
		Duration:       600*sim.Millisecond + sim.Time(r.Intn(5))*100*sim.Millisecond,
		Rings:          rings,
		BackgroundUtil: float64(r.Intn(4)) * 0.08,
	}
	// Spanning tree first so every ring is reachable, then spare links
	// that create alternative routes (BFS must tie-break identically).
	for i := 1; i < rings; i++ {
		l := LinkSpec{A: r.Intn(i), B: i}
		if r.Intn(2) == 0 {
			l.Latency = DefaultLinkLatency + sim.Time(r.Intn(5))*500*sim.Microsecond
		}
		spec.Links = append(spec.Links, l)
	}
	for extra := r.Intn(rings); extra > 0; extra-- {
		a, b := r.Intn(rings), r.Intn(rings)
		if a != b {
			spec.Links = append(spec.Links, LinkSpec{A: a, B: b})
		}
	}
	classes := []session.Class{session.ClassBackground, session.ClassStandard, session.ClassInteractive}
	for i, streams := 0, 2+r.Intn(5); i < streams; i++ {
		spec.Streams = append(spec.Streams, StreamSpec{
			StreamSpec: session.StreamSpec{
				Name:        fmt.Sprintf("s%d", i),
				PacketBytes: 60 + r.Intn(900),
				Interval:    sim.Time(6+r.Intn(25)) * sim.Millisecond,
				Class:       classes[r.Intn(len(classes))],
			},
			SrcRing: r.Intn(rings),
			DstRing: r.Intn(rings),
		})
	}
	for i, bursts := 0, r.Intn(3); i < bursts; i++ {
		spec.Bursts = append(spec.Bursts, BurstSpec{
			SrcRing:     r.Intn(rings),
			DstRing:     r.Intn(rings),
			At:          sim.Time(1+r.Intn(int(spec.Duration/sim.Millisecond)-1)) * sim.Millisecond,
			Count:       50 + r.Intn(250),
			PacketBytes: 600 + r.Intn(1200),
			Gap:         sim.Time(r.Intn(2)) * 40 * sim.Microsecond,
		})
	}
	for i, ins := 0, r.Intn(3); i < ins; i++ {
		// Park insertions exactly on or one tick past a window boundary.
		at := sim.Time(1+r.Intn(200)) * DefaultLinkLatency
		at += sim.Time(r.Intn(2)) // 0 or 1 ns
		if at > spec.Duration {
			at = spec.Duration / 2
		}
		spec.Insertions = append(spec.Insertions, InsertionSpec{Ring: r.Intn(rings), At: at})
	}
	return spec
}

// applyChaos schedules schedule-and-cancel churn exactly on window
// boundaries of every shard — the edge the wheel's inclusive RunUntil and
// the engine's drain bound share. The same seed produces the same churn
// on every Build, so fingerprints stay comparable; the fired events are
// counted by the schedulers and show up in Results.Events.
func applyChaos(n *Network, seed int64) {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := n.Window()
	for i := 0; i < n.Shards(); i++ {
		sched := n.Scheduler(i)
		for k := 0; k < 6; k++ {
			at := sim.Time(1+r.Intn(100)) * w
			victim := sched.At(at+sim.Time(r.Intn(2)), func() {})
			if r.Intn(2) == 0 {
				// Cancel from an event firing at the same boundary.
				sched.At(at, func() { victim.Cancel() })
			} else {
				victim.Cancel()
			}
			// Draw the child's delay now: the callback fires on whichever
			// shard worker owns this scheduler, so it must not touch r.
			delay := sim.Time(1+r.Intn(3)) * sim.Microsecond
			sched.At(at, func() {
				sched.After(delay, func() {})
			})
		}
	}
}

// TestShardSerialEquivalence is the oracle: for a dozen randomized
// internetworks — cross-ring bursts, cancels at window edges, bridge
// queue overflow — the sharded run must produce byte-identical results
// at every worker count, with the one-worker serial run as the reference.
func TestShardSerialEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := randomSpec(seed)
			run := func(workers int) string {
				n, err := Build(spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				applyChaos(n, seed)
				return n.Run(workers).Fingerprint()
			}
			want := run(1)
			counts := []int{2, 3, spec.Rings, 8}
			for _, workers := range counts {
				if workers <= 1 {
					continue
				}
				if got := run(workers); got != want {
					t.Fatalf("workers=%d diverged from serial oracle (rings=%d):\n--- serial ---\n%s\n--- workers=%d ---\n%s",
						workers, spec.Rings, want, workers, got)
				}
			}
		})
	}
}

// TestSerialOracleIsStable pins a fingerprint's self-consistency: two
// serial runs of the same spec are byte-identical (the precondition for
// blaming any divergence on the engine rather than the build).
func TestSerialOracleIsStable(t *testing.T) {
	spec := randomSpec(99)
	build := func() *Network {
		n, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := build().Run(1).Fingerprint()
	b := build().Run(1).Fingerprint()
	if a != b {
		t.Fatalf("serial runs diverged:\n%s\n---\n%s", a, b)
	}
}
