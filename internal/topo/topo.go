// Package topo scales the paper's single 4 Mbit/s Token Ring to a
// campus internetwork: N rings joined by store-and-forward bridges
// (internal/router halves), carrying cross-ring CTMSP sessions whose
// admission reserves bandwidth on every hop of the path — the CDTP-style
// chain transfer the ROADMAP's "millions of users" question needs.
//
// The package is also the repo's parallel simulation engine. Each ring —
// with its stations, background load, bridge halves and stream machinery
// — is one shard owning a private sim.Scheduler, and shards advance in
// conservative lookahead windows bounded by the minimum bridge latency:
// rings interact only through store-and-forward forwarding, whose latency
// is exactly the lookahead a conservative parallel discrete-event engine
// needs. Cross-ring frames travel through single-writer inbox queues
// drained at window boundaries, so the event order on every shard is a
// pure function of the Spec — bit-identical at any worker count, with
// the one-worker run as the serial oracle (DESIGN.md §9).
package topo

import (
	"fmt"

	"repro/internal/ctmsp"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Defaults for the zero-valued Spec knobs.
const (
	// DefaultLinkLatency is a bridge's store-and-forward hand-off time:
	// the switch decision plus the frame copy across the backplane to the
	// egress adapter. It is deliberately larger than the bare
	// router.DefaultSwitchCost floor — the window the engine may run
	// shards ahead by is the minimum link latency, and the switch cost
	// alone would mean a barrier every 180 µs of simulated time.
	DefaultLinkLatency = 2 * sim.Millisecond
)

// LinkSpec is one internetwork edge: a split bridge joining rings A and B.
type LinkSpec struct {
	A, B int
	// Latency is the bridge's store-and-forward hand-off time in each
	// direction (0 = DefaultLinkLatency). It must be at least
	// router.DefaultSwitchCost: the engine's lookahead window is the
	// minimum latency over all links, and the proof that windowed
	// execution is exact needs every link to respect that bound.
	Latency sim.Time
}

// StreamSpec describes one CTMSP stream between two rings (SrcRing may
// equal DstRing for a local control stream). The stream shape — name,
// packet size, interval, admission class — is the session layer's
// spec, embedded rather than duplicated so the two layers cannot
// drift; topo adds only the ring endpoints. The promoted OfferedBits
// is the per-ring bandwidth the stream reserves on every hop of its
// path.
type StreamSpec struct {
	session.StreamSpec
	SrcRing int
	DstRing int
}

// BurstSpec injects Count back-to-back frames from a dedicated host on
// SrcRing to a sink on DstRing — cross-ring pressure for overflow tests:
// a burst bigger than the source's mbuf pool or the bridge's egress queue
// exercises every drop path deterministically.
type BurstSpec struct {
	SrcRing, DstRing int
	At               sim.Time
	Count            int
	PacketBytes      int
	// Gap spaces the burst's frames (0 = all queued at the same instant).
	Gap sim.Time
}

// InsertionSpec forces a station insertion (a burst of back-to-back Ring
// Purges) on one ring at a given time.
type InsertionSpec struct {
	Ring   int
	At     sim.Time
	Purges int // 0 = the paper's ~10
}

// Spec describes one internetwork run. The Spec is the complete input:
// two Builds from equal Specs produce bit-identical Results at any
// worker count.
type Spec struct {
	Name     string
	Seed     int64
	Duration sim.Time

	// Rings is the number of Token Rings (shards).
	Rings int
	// RingBitRate overrides the 4 Mbit/s ring (0 = the paper's rate).
	RingBitRate int64
	// UtilizationCap is the per-ring admission cap
	// (0 = session.DefaultUtilizationCap).
	UtilizationCap float64
	// BackgroundUtil is each ring's offered background load fraction.
	BackgroundUtil float64
	// PlayoutPrebuffer delays each stream's playback
	// (0 = session.DefaultPrebuffer; multi-hop paths want more).
	PlayoutPrebuffer sim.Time

	Links      []LinkSpec
	Streams    []StreamSpec
	Bursts     []BurstSpec
	Insertions []InsertionSpec

	// Population, when non-nil, adds a statistical stream population on
	// top of Streams. Unlike the session layer — where arrivals are
	// admitted live as they fire — topo admission happens exactly once,
	// while Build constructs the machinery (the conservative-window
	// engine has no cross-shard admission channel at run time), so the
	// population is expanded at Build into a static census: the streams
	// alive at the run's midpoint, each title Zipf-drawn and homed on
	// ring title mod Rings, each source ring drawn uniformly (falling
	// back to a local stream when no path exists). The expansion is a
	// pure function of (Seed, Population, Rings), so the serial-vs-shard
	// fingerprint oracle covers population runs unchanged.
	Population *workload.PopulationSpec
}

func (s Spec) withDefaults() Spec {
	if s.RingBitRate == 0 {
		s.RingBitRate = ring.DefaultBitRate
	}
	if s.UtilizationCap == 0 {
		s.UtilizationCap = session.DefaultUtilizationCap
	}
	if s.PlayoutPrebuffer == 0 {
		s.PlayoutPrebuffer = session.DefaultPrebuffer
	}
	links := make([]LinkSpec, len(s.Links))
	copy(links, s.Links)
	for i := range links {
		if links[i].Latency == 0 {
			links[i].Latency = DefaultLinkLatency
		}
	}
	s.Links = links
	return s
}

// Validate reports specification mistakes early, before any machinery is
// built.
func (s Spec) Validate() error {
	_, err := s.validateCompiled()
	return err
}

// validateCompiled is Validate plus the compiled route table the checks
// ran against, so Build pays for the all-pairs compilation exactly once
// and routes streams through the very table that validated them.
func (s Spec) validateCompiled() (*routeTable, error) {
	switch {
	case s.Duration <= 0:
		return nil, fmt.Errorf("topo: duration must be positive")
	case s.Rings < 1:
		return nil, fmt.Errorf("topo: need at least one ring, got %d", s.Rings)
	case s.UtilizationCap < 0 || s.UtilizationCap > 1:
		return nil, fmt.Errorf("topo: utilization cap %v out of [0,1]", s.UtilizationCap)
	case s.BackgroundUtil < 0 || s.BackgroundUtil >= 1:
		return nil, fmt.Errorf("topo: background utilization %v out of [0,1)", s.BackgroundUtil)
	}
	for i, l := range s.Links {
		switch {
		case l.A < 0 || l.A >= s.Rings || l.B < 0 || l.B >= s.Rings:
			return nil, fmt.Errorf("topo: link %d joins rings %d-%d, outside 0..%d", i, l.A, l.B, s.Rings-1)
		case l.A == l.B:
			return nil, fmt.Errorf("topo: link %d joins ring %d to itself", i, l.A)
		case l.Latency != 0 && l.Latency < router.DefaultSwitchCost:
			return nil, fmt.Errorf("topo: link %d (rings %d-%d) latency %v is below the switch cost %v the lookahead bound needs",
				i, l.A, l.B, l.Latency, sim.Time(router.DefaultSwitchCost))
		}
	}
	rt := compileRoutes(s.Rings, s.Links)
	for i, st := range s.Streams {
		if err := st.Validate(i); err != nil {
			return nil, fmt.Errorf("topo: %w", err)
		}
		switch {
		case st.SrcRing < 0 || st.SrcRing >= s.Rings || st.DstRing < 0 || st.DstRing >= s.Rings:
			return nil, fmt.Errorf("topo: stream %d (%s) uses rings %d→%d, outside 0..%d",
				i, st.Name, st.SrcRing, st.DstRing, s.Rings-1)
		case !rt.reachable(st.SrcRing, st.DstRing):
			return nil, fmt.Errorf("topo: stream %d (%s): no path from ring %d to ring %d (ring %d %s)",
				i, st.Name, st.SrcRing, st.DstRing, st.SrcRing, rt.describeComponent(st.SrcRing))
		}
	}
	for i, b := range s.Bursts {
		switch {
		case b.SrcRing < 0 || b.SrcRing >= s.Rings || b.DstRing < 0 || b.DstRing >= s.Rings:
			return nil, fmt.Errorf("topo: burst %d uses rings %d→%d, outside 0..%d", i, b.SrcRing, b.DstRing, s.Rings-1)
		case b.Count <= 0 || b.PacketBytes <= 0:
			return nil, fmt.Errorf("topo: burst %d needs positive count and size", i)
		case b.At < 0 || b.At > s.Duration:
			return nil, fmt.Errorf("topo: burst %d at %v outside the run", i, b.At)
		case !rt.reachable(b.SrcRing, b.DstRing):
			return nil, fmt.Errorf("topo: burst %d: no path from ring %d to ring %d (ring %d %s)",
				i, b.SrcRing, b.DstRing, b.SrcRing, rt.describeComponent(b.SrcRing))
		}
	}
	for i, ins := range s.Insertions {
		if ins.Ring < 0 || ins.Ring >= s.Rings {
			return nil, fmt.Errorf("topo: insertion %d on ring %d, outside 0..%d", i, ins.Ring, s.Rings-1)
		}
		if ins.At < 0 || ins.At > s.Duration {
			return nil, fmt.Errorf("topo: insertion %d at %v outside the run", i, ins.At)
		}
	}
	if s.Population != nil {
		if err := s.Population.Validate(); err != nil {
			return nil, fmt.Errorf("topo: %w", err)
		}
		// The workload layer only requires positive packet sizes; the
		// expanded streams must also fit topo's CTMSP frame bounds.
		for i, cc := range s.Population.WithDefaults().Classes {
			if cc.PacketBytes <= ctmsp.HeaderSize || cc.PacketBytes > 4000 {
				return nil, fmt.Errorf("topo: population class %d (%s): packet size %d out of (%d,4000]",
					i, cc.Name, cc.PacketBytes, ctmsp.HeaderSize)
			}
		}
	}
	return rt, nil
}

// expandPopulation compiles the spec's population and returns the static
// census Build admits: every compiled arrival alive at the run midpoint,
// as full StreamSpecs. Draws come from a dedicated salt-mixed seed, so
// the census depends only on (Seed, Population, Rings, Duration).
func expandPopulation(s Spec, rt *routeTable) []StreamSpec {
	pop := s.Population.WithDefaults()
	rng := sim.NewRNG(sim.MixSeed(s.Seed, saltPopulation))
	census := sim.Time(s.Duration / 2)
	var out []StreamSpec
	for _, a := range pop.Compile(rng, s.Duration) {
		if a.At > census || a.DepartAt <= census {
			continue
		}
		cc := pop.Classes[a.Class]
		dst := a.Title % s.Rings
		src := rng.Intn(s.Rings)
		if !rt.reachable(src, dst) {
			// No bridge path from the drawn viewer to the title's home
			// ring: model a local replica instead of dropping the viewer.
			dst = src
		}
		out = append(out, StreamSpec{
			StreamSpec: session.StreamSpec{
				Name:        fmt.Sprintf("pop-%03d-%s", len(out), cc.Name),
				PacketBytes: cc.PacketBytes,
				Interval:    cc.Interval,
				Class:       session.Class(cc.Priority),
			},
			SrcRing: src,
			DstRing: dst,
		})
	}
	return out
}

// Salt spaces for sim.MixSeed, keeping component seeds disjoint.
const (
	saltRing   = 0x0100_0000
	saltHalf   = 0x0200_0000
	saltStream = 0x0400_0000
	saltBurst  = 0x0800_0000
	// saltPopulation seeds the population census expansion.
	saltPopulation = 0x1000_0000
)
