package core

import (
	"fmt"

	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// E20: the metro-scale question E18 and E19 each answered half of. E18
// proved the sharded engine exact on an eight-ring line; E19 proved the
// population workload deterministic on a four-ring census. The paper's
// §1 asks about "millions of users" across a city, and a city is neither
// a line nor four rings: it is a mesh — redundant paths, heterogeneous
// trunk latencies, most of the graph idle at any instant. E20 runs a
// 64-ring grid mesh carrying a Zipf/Poisson census of more than a
// thousand streams, and holds the engine to the same oracle: the run at
// every worker count must be byte-identical to the serial run, now with
// compiled next-hop routing (all-pairs table, deterministic tie-break),
// pooled cross-ring forwarding (zero steady-state allocations) and
// per-link conservative windows whose provably empty rounds are skipped
// without a barrier.

// e20Side is the default mesh side: an 8×8 grid, 64 rings, diameter 14
// hops.
const e20Side = 8

// e20FullDur is the experiment's full simulated duration; the census is
// taken at its midpoint.
const e20FullDur = 2 * sim.Second

// e20Workers is the worker-count matrix the oracle runs: serial
// reference, the awkward non-divisor counts, and a metro-scale fleet.
var e20Workers = []int{1, 2, 3, 16}

// E20Population is the metro census shape: ~3000 session arrivals per
// second against a 300 ms churn half-life keeps ≈1300 streams alive in
// steady state (Little's law — see workload.PopulationSpec.SteadyState),
// Zipf-skewed over a 96-title catalog homed across the mesh.
func E20Population() *workload.PopulationSpec {
	return &workload.PopulationSpec{
		ArrivalsPerSec: 3000,
		ZipfSkew:       1.0,
		Titles:         96,
		ChurnHalfLife:  300 * sim.Millisecond,
	}
}

// E20Topology builds the parameterized metro mesh: a side×side grid of
// rings bridged to their horizontal and vertical neighbours at the
// default link latency, plus a higher-latency diagonal trunk — the
// redundant-path, heterogeneous-latency input the compiled route table
// and the per-link windows exist for. The population census supplies the
// streams. ctmsbench reuses it for its -topo rows, and bench/ for the
// metro-mesh workload.
func E20Topology(side int, seed int64, duration sim.Time) topo.Spec {
	rings := side * side
	spec := topo.Spec{
		Name:           fmt.Sprintf("e20-mesh%d", rings),
		Seed:           seed,
		Duration:       duration,
		Rings:          rings,
		BackgroundUtil: 0.05,
		// The grid diameter is 2(side-1) bridge hops; prebuffer generously
		// so cross-mesh playback absorbs the trunk latency.
		PlayoutPrebuffer: 250 * sim.Millisecond,
		Population:       E20Population(),
	}
	at := func(x, y int) int { return y*side + x }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				spec.Links = append(spec.Links, topo.LinkSpec{A: at(x, y), B: at(x+1, y)})
			}
			if y+1 < side {
				spec.Links = append(spec.Links, topo.LinkSpec{A: at(x, y), B: at(x, y+1)})
			}
		}
	}
	// The diagonal trunk: a slower metro backbone cutting across the grid.
	// Its latency is deliberately larger than the grid links', so shards
	// on the trunk carry a different lookahead bound than shards off it.
	for i := 0; i+1 < side; i++ {
		spec.Links = append(spec.Links, topo.LinkSpec{
			A: at(i, i), B: at(i+1, i+1), Latency: 5 * sim.Millisecond,
		})
	}
	return spec
}

// e20SparseTopology is the idle-mesh variant the skip claim runs: the
// same grid with no background load and three hand-placed streams, so
// almost every ring is provably idle almost always — the "metro at
// night" shape where analytic round skipping must show up.
func e20SparseTopology(side int, seed int64, duration sim.Time) topo.Spec {
	spec := E20Topology(side, seed, duration)
	spec.Name = fmt.Sprintf("e20-sparse%d", side*side)
	spec.BackgroundUtil = 0
	spec.Population = nil
	rings := side * side
	add := func(name string, src, dst int) {
		spec.Streams = append(spec.Streams, topo.StreamSpec{
			StreamSpec: session.StreamSpec{
				Name:        name,
				PacketBytes: 500,
				Interval:    12 * sim.Millisecond,
				Class:       session.ClassStandard,
			},
			SrcRing: src,
			DstRing: dst,
		})
	}
	add("corner", 0, rings-1)
	add("edge", side-1, rings-side)
	add("local", rings/2, rings/2)
	return spec
}

func runE20(s Scale) *Comparison {
	c := &Comparison{}
	dur := e20FullDur
	if s.Duration > 0 && s.Duration < dur {
		dur = s.Duration
	}
	base := s.Seed
	if base == 0 {
		base = 1991
	}
	spec := E20Topology(e20Side, SweepSeed(base, 20), dur)

	run := func(sp topo.Spec, workers int) *topo.Results {
		n, err := topo.Build(sp)
		if err != nil {
			return nil
		}
		return n.Run(workers)
	}

	results := make([]*topo.Results, len(e20Workers))
	for i, w := range e20Workers {
		results[i] = run(spec, w)
		if results[i] == nil {
			c.addf("e20 build", "-", false, "topology build failed")
			return c
		}
	}
	serial := results[0]

	// The tentpole: every worker count reproduces the serial run bit for
	// bit, across a mesh routed by the compiled next-hop table.
	identical := true
	for _, r := range results[1:] {
		if r.Fingerprint() != serial.Fingerprint() {
			identical = false
		}
	}
	c.addf(fmt.Sprintf("mesh run bit-identical at %v workers", e20Workers),
		"conservative per-link windows are exact", identical,
		"%t (%d events, %d rounds, %d skipped)",
		identical, serial.Events, serial.Engine.Rounds, serial.Engine.RoundsSkipped)

	// The round accounting itself is worker-invariant: skipping is an
	// analytic decision over published bounds, not a scheduling accident.
	roundsAgree := true
	for _, r := range results[1:] {
		if r.Engine.Rounds != serial.Engine.Rounds ||
			r.Engine.RoundsSkipped != serial.Engine.RoundsSkipped {
			roundsAgree = false
		}
	}
	c.addf("round/skip counts identical at every worker count",
		"deterministic barrier schedule", roundsAgree, "%t", roundsAgree)

	// Scale: the census must be a metro population, not a toy — at full
	// duration more than a thousand concurrently-alive generated streams.
	census := len(serial.Streams)
	c.addf("census ≥ 1000 generated streams", "steady state of 3000/s × 300 ms churn",
		census >= 1000 || dur < e20FullDur, "%d streams over %v", census, dur)

	admitted := 0
	for _, st := range serial.Streams {
		if st.Decision.Admitted {
			admitted++
		}
	}
	c.addf("admission clears a metro-sized working set", "≥100 concurrent admissions",
		admitted >= 100 || dur < e20FullDur, "%d of %d admitted", admitted, census)

	// Cross-mesh traffic really crossed bridges: the mesh forwarded a
	// substantial frame volume, all of it through pooled envelopes.
	var fwd uint64
	for _, l := range serial.Links {
		fwd += l.A.Forwarded + l.B.Forwarded
	}
	c.addf("bridges forward cross-mesh traffic", "nonzero pooled forwarding volume",
		fwd > 0, "%d frames over %d links", fwd, len(serial.Links))

	// The idle-skip claim runs on the sparse variant: with three streams
	// on a 64-ring mesh, most rounds are provably empty and must be
	// skipped without a barrier — and the skipping must not cost the
	// oracle anything.
	sparseDur := dur
	if sparseDur > sim.Second {
		sparseDur = sim.Second
	}
	sparse := e20SparseTopology(e20Side, SweepSeed(base, 21), sparseDur)
	sp1 := run(sparse, 1)
	sp8 := run(sparse, 8)
	if sp1 == nil || sp8 == nil {
		c.addf("e20 sparse build", "-", false, "topology build failed")
		return c
	}
	c.addf("idle mesh skips barrier rounds", "provably empty rounds advance analytically",
		sp1.Engine.RoundsSkipped > 0, "%d of %d rounds skipped",
		sp1.Engine.RoundsSkipped, sp1.Engine.Rounds+sp1.Engine.RoundsSkipped)
	sparseOK := sp1.Fingerprint() == sp8.Fingerprint() &&
		sp1.Engine.Rounds == sp8.Engine.Rounds &&
		sp1.Engine.RoundsSkipped == sp8.Engine.RoundsSkipped
	c.addf("sparse mesh identical serial vs 8 workers", "skipping preserves the oracle",
		sparseOK, "%t", sparseOK)

	c.Notes = append(c.Notes, fmt.Sprintf(
		"mesh: %d rings %d links, %d census streams (%d admitted), %d frames forwarded",
		len(serial.Rings), len(serial.Links), census, admitted, fwd))
	c.Notes = append(c.Notes, fmt.Sprintf(
		"engine: %d rounds + %d skipped, window %v, %d events",
		serial.Engine.Rounds, serial.Engine.RoundsSkipped, serial.Window, serial.Events))
	c.Notes = append(c.Notes, fmt.Sprintf(
		"sparse mesh: %d rounds + %d skipped over %v",
		sp1.Engine.Rounds, sp1.Engine.RoundsSkipped, sparseDur))
	return c
}
