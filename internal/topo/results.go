package topo

import (
	"fmt"
	"strings"

	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/session"
	"repro/internal/sim"
)

// StreamResult is one stream's outcome across its whole path.
type StreamResult struct {
	Spec     StreamSpec
	Decision session.Decision
	// Path lists the rings the stream crosses, source first (admitted or
	// not; rejection names the refusing hop in Decision.Reason).
	Path []int

	// Stream and playout accounting (admitted streams only).
	session.Outcome

	// Delivery delay versus the nominal capture schedule, measured at the
	// receiver: end-to-end ring access, bridge hops and link latency.
	LatencyMax sim.Time
	LatencySum sim.Time
	LatencyN   uint64
}

// LatencyMean is the average delivery delay (0 when nothing arrived).
func (r StreamResult) LatencyMean() sim.Time {
	if r.LatencyN == 0 {
		return 0
	}
	return r.LatencySum / sim.Time(r.LatencyN)
}

// RingResult is one ring's accounting.
type RingResult struct {
	Counters    ring.Counters
	Utilization float64
	//ctmsvet:unit bit/s
	ReservedBits int64
	// Admitted / Rejected count streams whose path includes this ring;
	// a rejection is charged to the refusing ring only.
	Admitted int
	Rejected int
}

// LinkResult is one bridge's accounting: the two halves' forwarding
// stats plus per-direction frame counts and what was still in flight
// when the run ended.
type LinkResult struct {
	Spec       LinkSpec
	A, B       router.HalfStats
	SentAB     uint64
	SentBA     uint64
	InFlightAB int
	InFlightBA int
}

// BurstResult is one burst's source-side accounting.
type BurstResult struct {
	Spec      BurstSpec
	Attempted uint64
	Queued    uint64
	Dropped   uint64
}

// Results is everything one internetwork run produced. Every field except
// Workers is a pure function of the Spec; Fingerprint covers exactly that
// worker-invariant part.
type Results struct {
	Spec    Spec
	Window  sim.Time
	Windows uint64
	Workers int
	// Events is the total event count across all shard schedulers.
	Events uint64
	// Engine is the run's barrier-round accounting (not fingerprinted:
	// Rounds, RoundsSkipped and Span are worker-invariant, but the stall
	// and wall columns measure the host).
	Engine EngineStats

	Streams []StreamResult
	Rings   []RingResult
	Links   []LinkResult
	Bursts  []BurstResult
}

// collect reads every shard's state after the workers have joined (the
// join is the happens-before edge that makes this safe).
func (n *Network) collect(workers int) *Results {
	res := &Results{
		Spec:    n.spec,
		Window:  n.window,
		Workers: workers,
		Engine:  n.engStats,
	}
	if n.window > 0 {
		res.Windows = uint64((n.spec.Duration + n.window - 1) / n.window)
	}

	res.Streams = make([]StreamResult, len(n.streams))
	for i, st := range n.streams {
		r := StreamResult{Spec: st.spec, Decision: st.dec, Path: st.path}
		if st.dec.Admitted {
			r.Outcome = st.Finish(n.spec.Duration)
			r.LatencyMax = st.latMax
			r.LatencySum = st.latSum
			r.LatencyN = st.latN
		}
		res.Streams[i] = r
	}

	res.Rings = make([]RingResult, len(n.shards))
	for i, s := range n.shards {
		res.Rings[i] = RingResult{
			Counters:     s.ring.Counters(),
			Utilization:  s.ring.Utilization(),
			ReservedBits: s.ctrl.ReservedBits(),
		}
		res.Events += s.sched.Fired()
	}
	for _, st := range n.streams {
		if st.dec.Admitted {
			for _, r := range st.path {
				res.Rings[r].Admitted++
			}
		} else {
			res.Rings[st.refused].Rejected++
		}
	}

	res.Links = make([]LinkResult, len(n.links))
	for i, lk := range n.links {
		res.Links[i] = LinkResult{
			Spec:       lk.spec,
			A:          lk.halfA.Stats(),
			B:          lk.halfB.Stats(),
			SentAB:     lk.ab.sentTotal(),
			SentBA:     lk.ba.sentTotal(),
			InFlightAB: lk.ab.leftover(),
			InFlightBA: lk.ba.leftover(),
		}
	}

	res.Bursts = make([]BurstResult, len(n.bursts))
	for i, b := range n.bursts {
		res.Bursts[i] = BurstResult{
			Spec: b.spec, Attempted: b.attempted, Queued: b.queued, Dropped: b.dropped,
		}
	}
	return res
}

// sentTotal reports the lifetime message count through the inbox.
//
//ctmsvet:crossing peek end-of-run accounting: reads the lifetime counter after all workers have joined, moves no messages
func (b *inbox) sentTotal() uint64 {
	b.mu.Lock()
	s := b.next
	b.mu.Unlock()
	return s
}

// Fingerprint renders every worker-invariant observable to a canonical
// string: two runs of the same Spec must produce byte-identical
// fingerprints at any worker count. The shard-vs-serial oracle tests and
// E18's determinism check compare exactly this.
func (r *Results) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topo %s seed=%d dur=%v window=%v windows=%d events=%d\n",
		r.Spec.Name, r.Spec.Seed, r.Spec.Duration, r.Window, r.Windows, r.Events)
	for i, s := range r.Streams {
		fmt.Fprintf(&b, "stream %d %s path=%v", i, s.Spec.Name, s.Path)
		if !s.Decision.Admitted {
			fmt.Fprintf(&b, " REJECTED %q\n", s.Decision.Reason)
			continue
		}
		fmt.Fprintf(&b, " sent=%d delivered=%d lost=%d gaps=%d dups=%d glitches=%d starved=%d maxbuf=%d latmax=%d latsum=%d latn=%d\n",
			s.Sent, s.Delivered, s.Lost, s.Gaps, s.Duplicates,
			s.Glitches, int64(s.StarvedTime), s.MaxBufferBytes,
			int64(s.LatencyMax), int64(s.LatencySum), s.LatencyN)
	}
	for i, rg := range r.Rings {
		c := rg.Counters
		fmt.Fprintf(&b, "ring %d frames=%d bytes=%d mac=%d data=%d purges=%d purgeLost=%d notCopied=%d busy=%d insertions=%d reserved=%d util=%.9f adm=%d rej=%d\n",
			i, c.FramesSent, c.BytesSent, c.MACFrames, c.DataFrames,
			c.PurgeCount, c.PurgeLost, c.NotCopied, int64(c.BusyTime),
			c.InsertionSeen, rg.ReservedBits, rg.Utilization, rg.Admitted, rg.Rejected)
	}
	for i, l := range r.Links {
		fmt.Fprintf(&b, "link %d %d-%d a{fwd=%d bytes=%d inj=%d drop=%d qmax=%d} b{fwd=%d bytes=%d inj=%d drop=%d qmax=%d} ab{sent=%d inflight=%d} ba{sent=%d inflight=%d}\n",
			i, l.Spec.A, l.Spec.B,
			l.A.Forwarded, l.A.Bytes, l.A.Injected, l.A.Dropped, l.A.QueueMax,
			l.B.Forwarded, l.B.Bytes, l.B.Injected, l.B.Dropped, l.B.QueueMax,
			l.SentAB, l.InFlightAB, l.SentBA, l.InFlightBA)
	}
	for i, bu := range r.Bursts {
		fmt.Fprintf(&b, "burst %d attempted=%d queued=%d dropped=%d\n",
			i, bu.Attempted, bu.Queued, bu.Dropped)
	}
	return b.String()
}

// Report renders a human-readable summary.
func (r *Results) Report() string {
	var b strings.Builder
	admitted, rejected := 0, 0
	for _, s := range r.Streams {
		if s.Decision.Admitted {
			admitted++
		} else {
			rejected++
		}
	}
	fmt.Fprintf(&b, "=== topo %s (%d rings, %d links, %v, seed %d): %d streams, %d admitted, %d rejected ===\n",
		r.Spec.Name, len(r.Rings), len(r.Links), r.Spec.Duration, r.Spec.Seed,
		len(r.Streams), admitted, rejected)
	fmt.Fprintf(&b, "engine: window=%v windows=%d workers=%d events=%d\n",
		r.Window, r.Windows, r.Workers, r.Events)
	fmt.Fprintf(&b, "engine: rounds=%d skipped=%d ceiling=%.2f barrier-stall=%.1f%%\n",
		r.Engine.Rounds, r.Engine.RoundsSkipped, r.Engine.Ceiling(r.Events), 100*r.Engine.StallFraction(r.Workers))
	for _, s := range r.Streams {
		if !s.Decision.Admitted {
			fmt.Fprintf(&b, "  %-14s %v REJECTED: %s\n", s.Spec.Name, s.Path, s.Decision.Reason)
			continue
		}
		fmt.Fprintf(&b, "  %-14s %v sent=%d delivered=%.4f glitches=%d latmean=%v latmax=%v\n",
			s.Spec.Name, s.Path, s.Sent, s.DeliveredFraction(), s.Glitches,
			s.LatencyMean(), s.LatencyMax)
	}
	for i, rg := range r.Rings {
		fmt.Fprintf(&b, "  ring %d: util=%.2f%% frames=%d reserved=%d bits/s adm=%d rej=%d\n",
			i, 100*rg.Utilization, rg.Counters.FramesSent, rg.ReservedBits, rg.Admitted, rg.Rejected)
	}
	for i, l := range r.Links {
		fmt.Fprintf(&b, "  link %d (%d-%d): a→b fwd=%d drop=%d, b→a fwd=%d drop=%d\n",
			i, l.Spec.A, l.Spec.B, l.A.Forwarded, l.A.Dropped, l.B.Forwarded, l.B.Dropped)
	}
	return b.String()
}
