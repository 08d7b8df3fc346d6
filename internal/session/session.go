package session

import (
	"fmt"
	"strings"

	"repro/internal/ctmsp"
	"repro/internal/kernel"
	"repro/internal/playout"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tradapter"
	"repro/internal/vca"
	"repro/internal/workload"
)

// Defaults for the zero-valued Config knobs.
const (
	// DefaultUtilizationCap leaves ~10% of the wire for token rotation,
	// MAC frames and the jitter the admission budget cannot see.
	DefaultUtilizationCap = 0.90
	// DefaultPurgePenaltyWindow amortizes one purge's outage: each purge
	// subtracts capacity × (PurgeDuration / window) from the budget until
	// the window expires, so a back-to-back burst (a station insertion)
	// stacks into a real capacity loss while a lone purge barely dents it.
	DefaultPurgePenaltyWindow = 250 * sim.Millisecond
	// DefaultPrebuffer is the §6 playout prebuffer.
	DefaultPrebuffer = 40 * sim.Millisecond
	// defaultInsertionPurges is the paper's "on the order of 10"
	// back-to-back purges per station insertion.
	defaultInsertionPurges = 10
	// populationStations matches internal/core's campus-ring population so
	// per-station repeat latency is comparable across runners.
	populationStations = 64
	// maxOutstanding bounds packets a stream may queue in its Token Ring
	// driver: past it the VCA handler drops at the device, which is how a
	// starved stream degrades instead of buffering unboundedly.
	maxOutstanding = 8
)

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

func (s StreamSpec) validate(i int) error {
	switch {
	case s.PacketBytes <= ctmsp.HeaderSize || s.PacketBytes > 4000:
		return fmt.Errorf("session: stream %d (%s): packet size %d out of range", i, s.Name, s.PacketBytes)
	case s.Interval <= 0:
		return fmt.Errorf("session: stream %d (%s): interval must be positive", i, s.Name)
	case s.Class < ClassBackground || s.Class >= numClasses:
		return fmt.Errorf("session: stream %d (%s): unknown class %d", i, s.Name, int(s.Class))
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
	// PurgePenaltyWindow is how long one purge's capacity penalty lasts
	// (0 = DefaultPurgePenaltyWindow).
	PurgePenaltyWindow sim.Time
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
		if err := s.validate(i); err != nil {
			return err
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
		c.RingBitRate = ring.DefaultConfig().BitRate
	}
	if c.UtilizationCap == 0 {
		c.UtilizationCap = DefaultUtilizationCap
	}
	if c.PurgePenaltyWindow == 0 {
		c.PurgePenaltyWindow = DefaultPurgePenaltyWindow
	}
	if c.PlayoutPrebuffer == 0 {
		c.PlayoutPrebuffer = DefaultPrebuffer
	}
	return c
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

	// Stream accounting (admitted streams only).
	Sent       uint64
	Delivered  uint64
	Lost       uint64
	Gaps       uint64
	Duplicates uint64

	// Playout accounting: ActiveTime is how long the stream ran (until
	// shed or end of run), the denominator for the glitch rate.
	Glitches       uint64
	StarvedTime    sim.Time
	MaxBufferBytes int
	ActiveTime     sim.Time
}

// DeliveredFraction reports Delivered/Sent (0 for streams that never ran).
func (r StreamResult) DeliveredFraction() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Sent)
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
	// ReservedBitsEnd is the bandwidth still reserved when the run ended
	// (admitted minus shed).
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

// stream is one admitted stream's live machinery.
type stream struct {
	idx      int
	spec     StreamSpec
	dev      *vca.Device
	txDrv    *vca.TxDriver
	recv     *ctmsp.Receiver
	play     *playout.Playout
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

// mixSeed derives an independent seed per stream component so nearby
// stream indices get unrelated RNG streams (splitmix64-style finalizer,
// as core.SweepSeed does for sweep points).
func mixSeed(base int64, salt uint64) int64 {
	h := uint64(base) + salt*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int64(h)
}

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
	rng := sim.NewRNG(cfg.Seed)

	ringCfg := ring.DefaultConfig()
	ringCfg.Seed = cfg.Seed
	ringCfg.BitRate = cfg.RingBitRate
	r := ring.New(sched, ringCfg)
	for i := 0; i < populationStations; i++ {
		r.Attach("pop")
	}

	// Background load: a sliver of MAC chatter plus 1522-byte transfer
	// frames making up the rest of the declared utilization.
	var gens []interface{ Stop() }
	backgroundBitRate := int64(cfg.BackgroundUtil * float64(cfg.RingBitRate))
	if cfg.BackgroundUtil > 0 {
		macUtil := cfg.BackgroundUtil * 0.1
		if macUtil > 0.01 {
			macUtil = 0.01
		}
		mon := r.Attach("monitor")
		gens = append(gens, workload.NewMACGen(r, mon, macUtil, rng.Fork("bg-mac")))
		restUtil := cfg.BackgroundUtil - macUtil
		if restUtil > 0 {
			src, dst := r.Attach("bg-src"), r.Attach("bg-dst")
			frameTime := sim.WireTime(1522, cfg.RingBitRate)
			mean := sim.Scale(frameTime, 1/restUtil)
			gens = append(gens, workload.NewChatterGen(r, src, dst, 1522, 1522, mean, rng.Fork("bg-data")))
		}
	}

	ctrl := NewController(cfg.RingBitRate, cfg.UtilizationCap, backgroundBitRate)

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

	for i, spec := range cfg.Streams {
		offered := spec.OfferedBits()
		var dec Decision
		if cfg.DisableAdmission {
			dec = Decision{Admitted: true, ReservedBits: offered}
		} else {
			dec = ctrl.Admit(i, spec.Class, offered)
		}
		results.Streams[i] = StreamResult{Spec: spec, Decision: dec}
		if !dec.Admitted {
			results.Rejected++
			cfg.Trace.AddEvent(sched.Now(), EvReject, int64(i), offered)
			continue
		}
		results.Admitted++
		cfg.Trace.AddEvent(sched.Now(), EvAdmit, int64(i), dec.ReservedBits)
		r.ReserveBits(offered)
		st, err := buildStream(cfg, i, spec, sched, r, 0, popHist)
		if err != nil {
			return nil, err
		}
		live = append(live, st)
		byID[i] = st
	}

	shedStream := func(st *stream, at sim.Time) {
		if st.shed || st.departed {
			return
		}
		st.shed = true
		st.shedAt = at
		st.dev.Stop()
		ctrl.Release(st.idx)
		r.ReserveBits(-st.spec.OfferedBits())
		cfg.Trace.AddEvent(at, EvShed, int64(st.idx), st.spec.OfferedBits())
	}

	// Graceful degradation: every Ring Purge charges the budget with its
	// outage amortized over the penalty window; when the reservations no
	// longer fit the shrunken capacity, the lowest-class streams are shed
	// — stopped at the source and their reservation released — until the
	// survivors fit again. Shed streams stay shed (no re-admission
	// flapping); a new session must re-apply.
	if !cfg.DisableAdmission {
		penalty := int64(float64(ctrl.EffectiveBits()+backgroundBitRate) *
			(ringCfg.PurgeDuration.Seconds() / cfg.PurgePenaltyWindow.Seconds()))
		r.OnPurge(func(at sim.Time) {
			ctrl.AddPenalty(penalty)
			sched.After(cfg.PurgePenaltyWindow, func() {
				ctrl.RemovePenalty(penalty)
			})
			for _, id := range ctrl.Overcommitted() {
				if st := byID[id]; st != nil {
					shedStream(st, at)
				}
			}
		})
	}

	if cfg.ForceInsertionAt > 0 {
		sched.At(cfg.ForceInsertionAt, func() {
			r.Insertion(defaultInsertionPurges)
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
		arrivals := pop.Compile(rng.Fork("population"), cfg.Duration)
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
				var dec Decision
				if cfg.DisableAdmission {
					dec = Decision{Admitted: true, ReservedBits: offered}
				} else {
					dec = ctrl.Admit(streamID, spec.Class, offered)
				}
				res.Decision = dec
				if !dec.Admitted {
					results.Rejected++
					cfg.Trace.AddEvent(arrival.At, EvReject, int64(streamID), offered)
					return
				}
				results.Admitted++
				cfg.Trace.AddEvent(arrival.At, EvAdmit, int64(streamID), dec.ReservedBits)
				r.ReserveBits(offered)
				st, err := buildStream(cfg, streamID, spec, sched, r, arrival.At, popHist)
				// The spec was validated before the run; machinery
				// construction cannot fail for it.
				sim.Checkf(err == nil, "population stream %d: %v", streamID, err)
				live = append(live, st)
				byID[streamID] = st
				st.dev.Start()
				if arrival.DepartAt < cfg.Duration {
					sched.At(arrival.DepartAt, func() {
						if st.shed || st.departed {
							return
						}
						st.departed = true
						st.departAt = arrival.DepartAt
						st.dev.Stop()
						ctrl.Release(streamID)
						r.ReserveBits(-offered)
						cfg.Trace.AddEvent(arrival.DepartAt, EvDepart, int64(streamID), offered)
					})
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
					r.Insertion(defaultInsertionPurges)
				})
			}
		}
	}

	for _, st := range live {
		st.dev.Start()
	}
	sched.RunUntil(cfg.Duration)
	for _, st := range live {
		if !st.shed && !st.departed {
			st.dev.Stop()
		}
	}
	for _, g := range gens {
		g.Stop()
	}

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
		res.ActiveTime = end - st.startAt
		tx := st.txDrv.Stats()
		rx := st.recv.Stats()
		res.Sent = tx.PacketsSent
		res.Delivered = rx.InOrder + rx.Gaps
		res.Lost = rx.Lost
		res.Gaps = rx.Gaps
		res.Duplicates = rx.Duplicates
		p := st.play.Finish(end)
		res.Glitches = p.Glitches
		res.StarvedTime = p.StarvedTime
		res.MaxBufferBytes = p.MaxBufferBytes
	}

	results.Ring = r.Counters()
	results.RingUtilization = r.Utilization()
	results.ReservedBitsEnd = r.ReservedBits()
	return results, nil
}

// buildStream attaches one admitted stream to the ring: its own
// transmitter and receiver machines (the paper's RT/PC pair), a CTMSP
// connection with a precomputed ring header, the VCA source interrupting
// every Interval, and the receive path feeding a playout buffer. startAt
// is when the stream's device starts ticking (population arrivals start
// mid-run); lat, when non-nil, receives each delivered packet's delay
// past its nominal capture schedule.
func buildStream(cfg Config, i int, spec StreamSpec, sched *sim.Scheduler, r *ring.Ring, startAt sim.Time, lat *stats.Histogram) (*stream, error) {
	trCfg := tradapter.DefaultConfig()
	trCfg.CTMSPRingPriority = spec.Class.RingPriority()

	mkHost := func(role string, salt uint64) (*kernel.Kernel, *tradapter.Driver) {
		name := fmt.Sprintf("%s-%s", spec.Name, role)
		m := rtpc.NewMachine(sched, name, rtpc.DefaultCostModel(), mixSeed(cfg.Seed, salt))
		k := kernel.New(m)
		st := r.Attach(name)
		drv := tradapter.New(k, st, trCfg, tradapter.DefaultTiming())
		k.Register(drv)
		return k, drv
	}
	txK, txTR := mkHost("tx", uint64(i)*2+1)
	rxK, rxTR := mkHost("rx", uint64(i)*2+2)

	// Connection ids are a uint8 namespace; population runs can exceed it,
	// and the id only disambiguates packets on the shared ring trace, so
	// wrapping is safe (identical to i+1 for the first 250 streams).
	conn, err := ctmsp.Dial(txK, txTR, rxTR.Station().Addr(), uint8(i%250+1))
	if err != nil {
		return nil, fmt.Errorf("session: stream %d (%s): %w", i, spec.Name, err)
	}

	dev := vca.NewDevice(txK)
	dev.SetPeriod(spec.Interval)
	txCfg := vca.DefaultTxConfig()
	txCfg.DataBytes = spec.PacketBytes - ctmsp.HeaderSize
	txDrv, err := vca.NewTxDriver(txK, dev, conn, txCfg)
	if err != nil {
		return nil, fmt.Errorf("session: stream %d (%s): %w", i, spec.Name, err)
	}
	txDrv.MaxOutstanding = maxOutstanding

	recv := &ctmsp.Receiver{}
	rxDrv := vca.NewRxDriver(rxK, rxTR, recv, vca.DefaultRxConfigB())

	streamBytesPerSec := float64(spec.PacketBytes-ctmsp.HeaderSize) / spec.Interval.Seconds()
	play := playout.New(streamBytesPerSec, cfg.PlayoutPrebuffer)
	play.SetTrace(sched.Trace())
	rxDrv.OnDelivered = func(h ctmsp.Header, at sim.Time, ev ctmsp.Event) {
		if ev == ctmsp.InOrder || ev == ctmsp.Gap {
			play.Deliver(int(h.Length)-ctmsp.HeaderSize, at)
			if lat != nil {
				// Packet n was captured at startAt + (n+1)·Interval (the
				// device's first interrupt fires one period after Start);
				// anything past that is transport plus queueing delay.
				d := at - (startAt + sim.Time(h.PacketNum+1)*spec.Interval)
				if d < 0 {
					d = 0
				}
				lat.Add(d.Microseconds())
			}
		}
	}

	return &stream{idx: i, spec: spec, dev: dev, txDrv: txDrv, recv: recv, play: play, startAt: startAt}, nil
}
