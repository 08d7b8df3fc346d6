package session

import (
	"fmt"
	"strings"

	"repro/internal/ctmsp"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tradapter"
	"repro/internal/workload"
)

// Defaults for the zero-valued Config knobs.
const (
	// DefaultUtilizationCap leaves ~10% of the wire for token rotation,
	// MAC frames and the jitter the admission budget cannot see.
	DefaultUtilizationCap = 0.90
	// DefaultPrebuffer is the §6 playout prebuffer.
	DefaultPrebuffer = 40 * sim.Millisecond
)

// PurgePenaltyWindow is how long one purge's capacity penalty lasts. It
// amortizes one purge's outage: each purge subtracts capacity ×
// (ring.PurgeDuration / window) from the budget until the window expires,
// so a back-to-back burst (a station insertion) stacks into a real
// capacity loss while a lone purge barely dents it.
const PurgePenaltyWindow = 250 * sim.Millisecond

// StreamSpec describes one CTMSP stream a session wants to run.
type StreamSpec struct {
	// Name labels the stream in results.
	Name string
	// PacketBytes per packet (CTMSP header included), sent every Interval
	// — the same shape as core.Config's single stream.
	PacketBytes int
	Interval    sim.Time
	// Class sets admission priority, shed order and ring access priority.
	Class Class
}

// OfferedBits is the ring bandwidth the stream needs: packet plus Token
// Ring framing, every Interval.
//
//ctmsvet:unit bit/s result
func (s StreamSpec) OfferedBits() int64 {
	wire := s.PacketBytes + tradapter.RingOverhead
	return int64(float64(wire*8) / s.Interval.Seconds())
}

// Validate reports a stream shape the machinery cannot run; i is the
// stream's index, named in the error.
func (s StreamSpec) Validate(i int) error {
	switch {
	case s.PacketBytes <= ctmsp.HeaderSize || s.PacketBytes > 4000:
		return fmt.Errorf("stream %d (%s): packet size %d out of range", i, s.Name, s.PacketBytes)
	case s.Interval <= 0:
		return fmt.Errorf("stream %d (%s): interval must be positive", i, s.Name)
	case s.Class < ClassBackground || s.Class >= numClasses:
		return fmt.Errorf("stream %d (%s): unknown class %d", i, s.Name, int(s.Class))
	}
	return nil
}

// Config describes one multi-stream session run.
type Config struct {
	Name     string
	Seed     int64
	Duration sim.Time

	// RingBitRate overrides the 4 Mbit/s ring (0 = the paper's rate).
	RingBitRate int64
	// UtilizationCap is the fraction of the wire admission may promise
	// (0 = DefaultUtilizationCap).
	UtilizationCap float64
	// BackgroundUtil is the offered background load as a fraction of the
	// ring (MAC chatter plus file-transfer frames); the admission budget
	// subtracts it.
	BackgroundUtil float64
	// DisableAdmission runs every stream regardless of budget — the
	// free-for-all ablation E17 compares against. No shedding either.
	DisableAdmission bool
	// ForceInsertionAt injects one station insertion (a burst of
	// back-to-back Ring Purges) at the given offset; zero disables.
	ForceInsertionAt sim.Time
	// PlayoutPrebuffer delays each stream's playback after its first
	// packet (0 = DefaultPrebuffer).
	PlayoutPrebuffer sim.Time

	// Trace, when non-nil, is attached to the run's scheduler and receives
	// structured events (admissions, sheds, ring purges, playout glitches)
	// with no formatting cost on the hot path. Leave nil for benchmarked
	// runs.
	Trace *sim.Trace

	Streams []StreamSpec

	// Population, when non-nil, adds a statistical stream population on
	// top of Streams: Poisson arrivals with Zipf-skewed titles and churn,
	// compiled to a deterministic schedule before the run starts and
	// admitted live as each arrival fires (so storms and purge penalties
	// shape the verdicts). Population runs also record a playout-latency
	// histogram in Results.PlayoutLatency.
	Population *workload.PopulationSpec
}

// Validate reports configuration mistakes early.
func (c Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("session: duration must be positive")
	case len(c.Streams) == 0 && c.Population == nil:
		return fmt.Errorf("session: no streams")
	case c.UtilizationCap < 0 || c.UtilizationCap > 1:
		return fmt.Errorf("session: utilization cap %v out of [0,1]", c.UtilizationCap)
	case c.BackgroundUtil < 0 || c.BackgroundUtil >= 1:
		return fmt.Errorf("session: background utilization %v out of [0,1)", c.BackgroundUtil)
	}
	for i, s := range c.Streams {
		if err := s.Validate(i); err != nil {
			return fmt.Errorf("session: %w", err)
		}
	}
	if c.Population != nil {
		if err := c.Population.Validate(); err != nil {
			return fmt.Errorf("session: %w", err)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.RingBitRate == 0 {
		c.RingBitRate = ring.DefaultBitRate
	}
	if c.UtilizationCap == 0 {
		c.UtilizationCap = DefaultUtilizationCap
	}
	if c.PlayoutPrebuffer == 0 {
		c.PlayoutPrebuffer = DefaultPrebuffer
	}
	return c
}

// NewController builds the admission controller a run of c uses, so an
// eager admission check (the root Session's Add) reaches exactly the
// verdicts Run replays.
func (c Config) NewController() *Controller {
	c = c.withDefaults()
	return NewController(c.RingBitRate, c.UtilizationCap, int64(c.BackgroundUtil*float64(c.RingBitRate)))
}

// StreamResult is one stream's outcome.
type StreamResult struct {
	Spec     StreamSpec
	Decision Decision

	// Shed reports the stream was admitted but later stopped by the
	// degradation policy; ShedAt is when.
	Shed   bool
	ShedAt sim.Time

	// Population accounting: Arrived marks a churn-generated stream,
	// ArrivedAt is its Poisson arrival offset, Title its Zipf-drawn
	// catalog rank. Departed/DepartedAt record a natural hang-up (churn),
	// as opposed to a policy shed.
	Arrived    bool
	ArrivedAt  sim.Time
	Title      int
	Departed   bool
	DepartedAt sim.Time

	// Stream and playout accounting (admitted streams only).
	Outcome
	// ActiveTime is how long the stream ran (until shed, departure or end
	// of run), the denominator for the glitch rate.
	ActiveTime sim.Time
}

// GlitchesPerMinute normalizes the glitch count to the stream's active
// time, so shed and full-length streams compare fairly.
func (r StreamResult) GlitchesPerMinute() float64 {
	if r.ActiveTime <= 0 {
		return 0
	}
	return float64(r.Glitches) / (r.ActiveTime.Seconds() / 60)
}

// StarvedFraction reports the share of the stream's active time the
// playout buffer spent starved. A stream that cannot win the ring under
// overload starves rather than glitching repeatedly (the buffer empties
// once and stays empty), so this is the honest congestion metric.
func (r StreamResult) StarvedFraction() float64 {
	if r.ActiveTime <= 0 {
		return 0
	}
	return r.StarvedTime.Seconds() / r.ActiveTime.Seconds()
}

// Results is everything one session run produced.
type Results struct {
	Config  Config
	Elapsed sim.Time

	Streams []StreamResult

	Admitted int
	Rejected int
	ShedN    int
	// Departed counts population streams that hung up naturally (churn),
	// releasing their reservation without a shed.
	Departed int

	// PlayoutLatency aggregates every delivered packet's delay past its
	// nominal capture schedule, in microseconds; non-nil only for
	// population runs (Config.Population set), where the distribution's
	// p99/p999 is the experiment's deliverable.
	PlayoutLatency *stats.Histogram

	Ring            ring.Counters
	RingUtilization float64
	// ReservedBitsEnd is the bandwidth still reserved when the run ended:
	// the Decision.ReservedBits of every admitted stream that was neither
	// shed nor departed.
	//
	//ctmsvet:unit bit/s
	ReservedBitsEnd int64
}

// WorstAdmittedGlitchRate reports the highest glitches/minute among
// streams that were admitted and never shed (0 when none ran).
func (r *Results) WorstAdmittedGlitchRate() float64 {
	worst := 0.0
	for _, s := range r.Streams {
		if !s.Decision.Admitted || s.Shed {
			continue
		}
		if g := s.GlitchesPerMinute(); g > worst {
			worst = g
		}
	}
	return worst
}

// WorstAdmittedStarvedFraction reports the highest starved fraction among
// streams that were admitted and never shed (0 when none ran).
func (r *Results) WorstAdmittedStarvedFraction() float64 {
	worst := 0.0
	for _, s := range r.Streams {
		if !s.Decision.Admitted || s.Shed {
			continue
		}
		if f := s.StarvedFraction(); f > worst {
			worst = f
		}
	}
	return worst
}

// Report renders a human-readable summary.
func (r *Results) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== session %s (%v, seed %d): %d streams, %d admitted, %d rejected, %d shed ===\n",
		r.Config.Name, r.Elapsed, r.Config.Seed, len(r.Streams), r.Admitted, r.Rejected, r.ShedN)
	fmt.Fprintf(&b, "ring: util=%.2f%% reserved=%d bits/s purges=%d insertions=%d purgeLost=%d\n",
		100*r.RingUtilization, r.ReservedBitsEnd, r.Ring.PurgeCount, r.Ring.InsertionSeen, r.Ring.PurgeLost)
	for _, s := range r.Streams {
		switch {
		case !s.Decision.Admitted:
			fmt.Fprintf(&b, "  %-16s %-11s REJECTED: %s\n", s.Spec.Name, s.Spec.Class, s.Decision.Reason)
		case s.Shed:
			fmt.Fprintf(&b, "  %-16s %-11s SHED at %v: sent=%d delivered=%.4f glitches=%d\n",
				s.Spec.Name, s.Spec.Class, s.ShedAt, s.Sent, s.DeliveredFraction(), s.Glitches)
		default:
			fmt.Fprintf(&b, "  %-16s %-11s ok: sent=%d delivered=%.4f lost=%d glitches=%d (%.2f/min) starved=%.1f%% maxbuf=%dB\n",
				s.Spec.Name, s.Spec.Class, s.Sent, s.DeliveredFraction(), s.Lost,
				s.Glitches, s.GlitchesPerMinute(), 100*s.StarvedFraction(), s.MaxBufferBytes)
		}
	}
	return b.String()
}

// stream is one admitted stream's live machinery and lifecycle.
type stream struct {
	*Stream
	idx      int
	spec     StreamSpec
	shed     bool
	shedAt   sim.Time
	startAt  sim.Time // population arrivals start mid-run
	departed bool
	departAt sim.Time
}

// stormSpacing separates the insertions of a correlated storm: each one
// is ~10 back-to-back purges (≈120 ms of outage), so consecutive
// insertions land just after the previous outage ends.
const stormSpacing = 120 * sim.Millisecond

// Run executes the session: admission in spec order, then every admitted
// stream transmits concurrently over one shared ring for cfg.Duration.
// The run is a self-contained deterministic simulation — same Config,
// same Results — so sessions fan out across lab.Pool workers safely.
func Run(cfg Config) (*Results, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	sched := sim.NewScheduler()
	sched.SetTrace(cfg.Trace)

	r, bg := NewRing(sched, cfg.Seed, cfg.RingBitRate, cfg.BackgroundUtil)
	ctrl := cfg.NewController()

	results := &Results{Config: cfg, Elapsed: cfg.Duration}
	results.Streams = make([]StreamResult, len(cfg.Streams))
	var live []*stream
	byID := make(map[int]*stream)

	// Population runs record every delivered packet's playout delay; the
	// histogram is shared across static and churn-generated streams.
	var popHist *stats.Histogram
	if cfg.Population != nil {
		popHist = stats.NewHistogram(100, "playout latency")
		results.PlayoutLatency = popHist
	}

	// admit decides stream id's admission now and, when it is admitted,
	// reserves its bandwidth and builds its machinery, ready to Start; a
	// rejected stream returns nil.
	admit := func(id int, spec StreamSpec, res *StreamResult) *stream {
		at := sched.Now()
		offered := spec.OfferedBits()
		res.Decision = Decision{Admitted: true, ReservedBits: offered}
		if !cfg.DisableAdmission {
			res.Decision = ctrl.Admit(id, spec.Class, offered)
		}
		if !res.Decision.Admitted {
			results.Rejected++
			cfg.Trace.AddEvent(at, EvReject, int64(id), offered)
			return nil
		}
		results.Admitted++
		cfg.Trace.AddEvent(at, EvAdmit, int64(id), res.Decision.ReservedBits)
		var onDelay func(sim.Time)
		if popHist != nil {
			onDelay = func(d sim.Time) {
				// Packet n was captured at at + (n+1)·Interval (the
				// device's first interrupt fires one period after Start);
				// anything past that is transport plus queueing delay.
				d -= at
				if d < 0 {
					d = 0
				}
				popHist.Add(d.Microseconds())
			}
		}
		// Both hosts share the session's ring, seeded from the run seed
		// by the stream index.
		tx := End{Ring: r, Seed: sim.MixSeed(cfg.Seed, uint64(id)*2+1)}
		rx := End{Ring: r, Seed: sim.MixSeed(cfg.Seed, uint64(id)*2+2)}
		st := &stream{Stream: NewStream(id, spec, tx, rx, 0, cfg.PlayoutPrebuffer, onDelay),
			idx: id, spec: spec, startAt: at}
		live = append(live, st)
		byID[id] = st
		return st
	}

	for i, spec := range cfg.Streams {
		results.Streams[i] = StreamResult{Spec: spec}
		admit(i, spec, &results.Streams[i])
	}

	// leave stops a live stream early — a purge-driven shed (EvShed) or a
	// churn departure (EvDepart) — and releases its reservation. A stream
	// leaves at most once.
	leave := func(st *stream, at sim.Time, ev sim.EventKind) {
		if st.shed || st.departed {
			return
		}
		if ev == EvShed {
			st.shed, st.shedAt = true, at
		} else {
			st.departed, st.departAt = true, at
		}
		st.Stop()
		ctrl.Release(st.idx)
		cfg.Trace.AddEvent(at, ev, int64(st.idx), st.spec.OfferedBits())
	}

	// Graceful degradation: every Ring Purge charges the budget with its
	// outage amortized over the penalty window; when the reservations no
	// longer fit the shrunken capacity, the lowest-class streams are shed
	// — stopped at the source and their reservation released — until the
	// survivors fit again. Shed streams stay shed (no re-admission
	// flapping); a new session must re-apply.
	if !cfg.DisableAdmission {
		penalty := int64(float64(ctrl.EffectiveBits()+bg.Bits) *
			(ring.PurgeDuration.Seconds() / PurgePenaltyWindow.Seconds()))
		r.OnPurge(func(at sim.Time) {
			ctrl.AddPenalty(penalty)
			sched.After(PurgePenaltyWindow, func() {
				ctrl.RemovePenalty(penalty)
			})
			for _, id := range ctrl.Overcommitted() {
				if st := byID[id]; st != nil {
					leave(st, at, EvShed)
				}
			}
		})
	}

	if cfg.ForceInsertionAt > 0 {
		sched.At(cfg.ForceInsertionAt, func() {
			r.Insertion(DefaultInsertionPurges)
		})
	}

	// The population: its whole arrival schedule was compiled from a
	// Fork-derived RNG before the run, so the draws depend only on (seed,
	// spec); the scheduler then replays it, admitting each arrival at its
	// arrival instant — against whatever budget the purge penalties and
	// earlier arrivals have left — and hanging it up at its churn-drawn
	// departure.
	if cfg.Population != nil {
		pop := cfg.Population.WithDefaults()
		arrivals := pop.Compile(sim.NewRNG(sim.ForkSeed(cfg.Seed, "population")), cfg.Duration)
		baseID := len(cfg.Streams)
		results.Streams = append(results.Streams, make([]StreamResult, len(arrivals))...)
		for j, a := range arrivals {
			id := baseID + j
			cc := pop.Classes[a.Class]
			spec := StreamSpec{
				Name:        fmt.Sprintf("pop-%04d-%s", j, cc.Name),
				PacketBytes: cc.PacketBytes,
				Interval:    cc.Interval,
				Class:       Class(cc.Priority),
			}
			res := &results.Streams[id]
			*res = StreamResult{Spec: spec, Arrived: true, ArrivedAt: a.At, Title: a.Title}
			arrival := a
			streamID := id
			sched.At(a.At, func() {
				offered := spec.OfferedBits()
				cfg.Trace.AddEvent(arrival.At, EvArrive, int64(streamID), offered)
				st := admit(streamID, spec, res)
				if st == nil {
					return
				}
				st.Start()
				if arrival.DepartAt < cfg.Duration {
					sched.At(arrival.DepartAt, func() { leave(st, arrival.DepartAt, EvDepart) })
				}
			})
		}
		// Correlated insertion storm: back-to-back station insertions, a
		// bigger capacity shock than any single purge burst.
		if pop.StormAt > 0 && pop.StormInsertions > 0 {
			for k := 0; k < pop.StormInsertions; k++ {
				at := pop.StormAt + sim.Time(k)*stormSpacing
				if at >= cfg.Duration {
					break
				}
				sched.At(at, func() {
					r.Insertion(DefaultInsertionPurges)
				})
			}
		}
	}

	for _, st := range live {
		st.Start()
	}
	sched.RunUntil(cfg.Duration)
	for _, st := range live {
		if !st.shed && !st.departed {
			st.Stop()
		}
	}
	bg.Stop()

	for _, st := range live {
		res := &results.Streams[st.idx]
		res.Shed = st.shed
		res.ShedAt = st.shedAt
		res.Departed = st.departed
		res.DepartedAt = st.departAt
		end := cfg.Duration
		if st.shed {
			// Judge a shed stream on the time it was allowed to run; its
			// post-shed starvation is the policy's doing, not the ring's.
			end = st.shedAt
			results.ShedN++
		}
		if st.departed {
			// A churn departure is the stream's own hang-up; judge it on
			// the time it chose to run.
			end = st.departAt
			results.Departed++
		}
		if !st.shed && !st.departed {
			results.ReservedBitsEnd += res.Decision.ReservedBits
		}
		res.ActiveTime = end - st.startAt
		res.Outcome = st.Finish(end)
	}

	results.Ring = r.Counters()
	results.RingUtilization = r.Utilization()
	return results, nil
}
