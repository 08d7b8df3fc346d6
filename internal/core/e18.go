package core

import (
	"fmt"
	"strings"

	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/topo"
)

// E18: the scale question the paper leaves open. §1 asks how the data
// rates of a distributed multimedia system with "millions of users" could
// be supported; footnote 5 declines even a single router. E14 built that
// router; E18 builds the internetwork: a K-ring backbone joined by
// store-and-forward bridges, cross-ring CTMSP sessions whose admission
// reserves bandwidth on every hop of the path, and a transit ring whose
// budget runs out — refusals must name the hop that refused, because a
// guarantee across a path is only as real as its weakest ring.
//
// The experiment is also the sharded engine's acceptance gate: the same
// internetwork runs serially and across four shard workers, and every
// observable — stream accounting, ring counters, bridge stats, event
// counts — must be byte-identical (DESIGN.md §9).

// e18Rings is the default backbone size: eight rings in a line, so the
// longest path is seven bridge hops.
const e18Rings = 8

// E18Topology builds the parameterized E18 backbone: rings in a line,
// per-ring local streams, bidirectional adjacent-ring voice, two-hop
// media streams, and a pack of fat transit streams that deliberately
// overrun the middle ring's admission budget.
func E18Topology(rings int, seed int64, duration sim.Time) topo.Spec {
	spec := topo.Spec{
		Name:     fmt.Sprintf("e18-%dring", rings),
		Seed:     seed,
		Duration: duration,
		Rings:    rings,
		// The paper's Test Case B ran over a live ring; give every ring a
		// background sliver so bridges compete for the token like anyone.
		BackgroundUtil: 0.05,
		// Multi-hop paths add bridge latency; prebuffer like the E17
		// insertion run does.
		PlayoutPrebuffer: 150 * sim.Millisecond,
	}
	for i := 0; i+1 < rings; i++ {
		spec.Links = append(spec.Links, topo.LinkSpec{A: i, B: i + 1})
	}
	add := func(name string, src, dst, bytes int, class session.Class) {
		spec.Streams = append(spec.Streams, topo.StreamSpec{
			StreamSpec: session.StreamSpec{
				Name:        name,
				PacketBytes: bytes,
				Interval:    12 * sim.Millisecond,
				Class:       class,
			},
			SrcRing: src,
			DstRing: dst,
		})
	}
	// One local stream per ring (the paper's single-ring workload).
	for i := 0; i < rings; i++ {
		add(fmt.Sprintf("loc-%d", i), i, i, 500, session.ClassStandard)
	}
	// Voice both ways across every bridge.
	for i := 0; i+1 < rings; i++ {
		add(fmt.Sprintf("adj-%d", i), i, i+1, 200, session.ClassInteractive)
		add(fmt.Sprintf("adj-r%d", i), i+1, i, 200, session.ClassInteractive)
	}
	// Two-hop media streams.
	for i := 0; i+2 < rings; i += 2 {
		add(fmt.Sprintf("hop2-%d", i), i, i+2, 500, session.ClassStandard)
	}
	// Transit overload: fat streams across the middle ring, admitted in
	// spec order until its budget runs out. The refusals must name it.
	mid := rings / 2
	if mid > 0 && mid+1 < rings {
		for j := 0; j < 4; j++ {
			add(fmt.Sprintf("xload-%d", j), mid-1, mid+1, 1500, session.ClassBackground)
		}
	}
	return spec
}

func runE18(s Scale) *Comparison {
	c := &Comparison{}
	dur := 8 * sim.Second
	if s.Duration > 0 && s.Duration < dur {
		dur = s.Duration
	}
	base := s.Seed
	if base == 0 {
		base = 1991
	}
	spec := E18Topology(e18Rings, SweepSeed(base, 18), dur)

	run := func(workers int) *topo.Results {
		n, err := topo.Build(spec)
		if err != nil {
			return nil
		}
		return n.Run(workers)
	}
	serial := run(1)
	sharded := run(4)
	if serial == nil || sharded == nil {
		c.addf("e18 build", "-", false, "topology build failed")
		return c
	}

	// The tentpole claim: the parallel run is the serial run, bit for bit.
	identical := serial.Fingerprint() == sharded.Fingerprint()
	c.addf("4-shard run bit-identical to serial", "conservative windows are exact",
		identical, "%t (%d events, %d windows of %v)",
		identical, serial.Events, serial.Windows, serial.Window)

	r := serial
	// Cross-ring delivery: every admitted stream lands its packets, minus
	// at most the few still in flight across the bridges at the end.
	delivered := true
	var worstName string
	for _, st := range r.Streams {
		if !st.Decision.Admitted {
			continue
		}
		inFlight := uint64(2 * len(st.Path))
		if st.Sent > 0 && st.Delivered+inFlight < st.Sent {
			delivered = false
			worstName = st.Spec.Name
		}
	}
	c.addf("admitted streams deliver across bridges", "loss-free forwarding",
		delivered, "all=%t worst=%s", delivered, worstName)

	// Two-hop latency carries both bridges' store-and-forward time.
	hop2Floor := true
	for _, st := range r.Streams {
		if !st.Decision.Admitted || len(st.Path) != 3 {
			continue
		}
		if st.LatencyN == 0 || st.LatencyMean() < 2*topo.DefaultLinkLatency {
			hop2Floor = false
		}
	}
	c.addf("two-hop latency ≥ 2 × link latency", "store-and-forward adds up",
		hop2Floor, "%t", hop2Floor)

	// Per-hop admission: the transit refusals name the middle ring.
	mid := e18Rings / 2
	rejected, named := 0, 0
	for _, st := range r.Streams {
		if st.Decision.Admitted {
			continue
		}
		rejected++
		if strings.HasPrefix(st.Decision.Reason, fmt.Sprintf("ring %d:", mid)) {
			named++
		}
	}
	c.addf("transit overload refused at the weak hop", "refusal names the ring",
		rejected >= 1 && rejected == named, "%d rejected, %d naming ring %d", rejected, named, mid)

	// Every admitted stream holds its reservation on every ring it
	// crosses — the CDTP-style chain of per-hop guarantees.
	wantReserved := make([]int64, e18Rings)
	for _, st := range r.Streams {
		if !st.Decision.Admitted {
			continue
		}
		for _, ring := range st.Path {
			wantReserved[ring] += st.Spec.OfferedBits()
		}
	}
	chainHolds := true
	for i, rg := range r.Rings {
		if rg.ReservedBits != wantReserved[i] {
			chainHolds = false
		}
	}
	c.addf("reservations held on every hop", "path-wide bandwidth chain",
		chainHolds, "%t", chainHolds)

	for i, rg := range r.Rings {
		c.Notes = append(c.Notes, fmt.Sprintf(
			"ring %d: util %.1f%% reserved %d bits/s admitted %d rejected %d",
			i, 100*rg.Utilization, rg.ReservedBits, rg.Admitted, rg.Rejected))
	}
	var fwd uint64
	for _, l := range r.Links {
		fwd += l.A.Forwarded + l.B.Forwarded
	}
	c.Notes = append(c.Notes, fmt.Sprintf(
		"backbone: %d bridges forwarded %d frames; engine ran %d windows of %v (%d events)",
		len(r.Links), fwd, r.Windows, r.Window, r.Events))
	return c
}
