package ctms

import (
	"fmt"
	"time"

	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/workload"
)

// StreamClass is a stream's priority class. Admission bookkeeping,
// degradation order and Token Ring access priority all follow it: when
// Ring Purges shrink the usable capacity, ClassBackground streams are
// shed before ClassStandard, and ClassInteractive last.
type StreamClass string

const (
	// ClassBackground is prefetch/replication traffic: first to shed.
	ClassBackground StreamClass = "background"
	// ClassStandard is ordinary playback, and what the empty string means.
	ClassStandard StreamClass = "standard"
	// ClassInteractive is conversational media (the paper's telephony
	// case): last to shed.
	ClassInteractive StreamClass = "interactive"
)

var classTable = enumTable[StreamClass, session.Class]{
	kind: "stream class", def: ClassStandard,
	vals: []enumPair[StreamClass, session.Class]{
		{ClassBackground, session.ClassBackground},
		{ClassStandard, session.ClassStandard},
		{ClassInteractive, session.ClassInteractive},
	},
}

// StreamSpec describes one CTMSP stream offered to a Session: PacketBytes
// (CTMSP header included) sent every Interval, at the given Class.
type StreamSpec struct {
	Name        string
	PacketBytes int
	Interval    time.Duration
	Class       StreamClass
}

// CodecClass is one entry of a population's codec mix: the stream shape
// every arrival of this class runs, its admission class, and the
// relative probability of drawing it.
type CodecClass struct {
	// Name labels streams of this class in results.
	Name string
	// PacketBytes per packet (CTMSP header included), sent every
	// Interval.
	PacketBytes int
	Interval    time.Duration
	// Class is the admission/shed priority ("background", "standard",
	// "interactive"; empty means standard).
	Class StreamClass
	// Weight is the class's relative draw probability (any positive
	// scale; weights are normalized over the mix).
	Weight float64
}

// PopulationSpec describes a statistical stream population instead of a
// hand-enumerated list: Poisson arrivals (ArrivalsPerSec, shaped by the
// piecewise Diurnal curve), exponential lifetimes (ChurnHalfLife),
// demand Zipf-skewed across Titles, and a weighted codec mix. A session
// with a population compiles the whole arrival schedule from the seed
// before running — same options, same population, at any parallelism —
// and records the playout-latency distribution of every delivered
// packet.
type PopulationSpec struct {
	// ArrivalsPerSec is the mean Poisson stream-arrival rate before
	// diurnal modulation. Required.
	ArrivalsPerSec float64
	// ZipfSkew is the exponent s of the title popularity distribution
	// (title k drawn with probability ∝ 1/(k+1)^s); 0 is uniform.
	ZipfSkew float64
	// Titles is the catalog size demand is skewed over (0 = 1).
	Titles int
	// ChurnHalfLife is the stream-lifetime half-life: half the admitted
	// streams hang up within it (0 = 5 s).
	ChurnHalfLife time.Duration
	// Classes is the codec mix (empty = mostly standard playback with a
	// sliver of interactive voice and background prefetch).
	Classes []CodecClass
	// Diurnal divides the run into equal segments and multiplies the
	// arrival rate by each segment's entry; empty means a flat rate.
	Diurnal []float64
	// StormAt triggers StormInsertions back-to-back station insertions
	// at the given offset (a correlated capacity shock); zero disables.
	StormAt         time.Duration
	StormInsertions int
	// MaxStreams caps the compiled arrival count (0 = 100000).
	MaxStreams int
}

// toInternal converts to the workload layer's spec, translating class
// names with the same table Add uses (unknown spellings get the full
// list of valid ones).
func (p *PopulationSpec) toInternal() (*workload.PopulationSpec, error) {
	if p == nil {
		return nil, nil
	}
	out := &workload.PopulationSpec{
		ArrivalsPerSec:  p.ArrivalsPerSec,
		ZipfSkew:        p.ZipfSkew,
		Titles:          p.Titles,
		ChurnHalfLife:   sim.Time(p.ChurnHalfLife),
		Diurnal:         p.Diurnal,
		StormAt:         sim.Time(p.StormAt),
		StormInsertions: p.StormInsertions,
		MaxStreams:      p.MaxStreams,
	}
	for i, cc := range p.Classes {
		class, err := classTable.toCore(cc.Class)
		if err != nil {
			return nil, fmt.Errorf("ctms: population class %d (%s): %w", i, cc.Name, err)
		}
		out.Classes = append(out.Classes, workload.CodecClass{
			Name:        cc.Name,
			PacketBytes: cc.PacketBytes,
			Interval:    sim.Time(cc.Interval),
			Priority:    int(class),
			Weight:      cc.Weight,
		})
	}
	return out, nil
}

// Validate reports specification mistakes — bad ranges, unknown class
// spellings — with the valid values spelled out.
func (p *PopulationSpec) Validate() error {
	internal, err := p.toInternal()
	if err != nil {
		return err
	}
	if internal == nil {
		return nil
	}
	if err := internal.Validate(); err != nil {
		return fmt.Errorf("ctms: %w", err)
	}
	return nil
}

// SessionOptions configures a multi-stream Session. The zero value plus a
// Duration is runnable: the paper's 4 Mbit/s ring, a 90% admission cap,
// no background load.
type SessionOptions struct {
	Name     string
	Seed     int64
	Duration time.Duration

	// RingBitRate overrides the 4 Mbit/s ring (0 = the paper's rate).
	RingBitRate int64
	// UtilizationCap is the fraction of the wire admission may promise;
	// zero selects the 0.90 default, which leaves headroom for token
	// rotation and MAC traffic.
	UtilizationCap float64
	// BackgroundUtil is the offered background load as a fraction of the
	// ring; the admission budget subtracts it.
	BackgroundUtil float64
	// DisableAdmission runs every stream regardless of budget and never
	// sheds — the free-for-all E17 compares against.
	DisableAdmission bool
	// ForceInsertionAt injects one station insertion (a burst of
	// back-to-back Ring Purges) at the given offset; zero disables.
	ForceInsertionAt time.Duration
	// PlayoutPrebuffer delays each stream's playback after its first
	// packet (0 = the §6 default of 40 ms; 130 ms rides out an insertion).
	PlayoutPrebuffer time.Duration

	// Population, when non-nil, adds a statistical stream population on
	// top of any streams offered with Add: arrivals are admitted live at
	// their Poisson arrival instants and hang up at their churn-drawn
	// departures. Population runs fill SessionResult.Departed and the
	// playout-latency quantiles.
	Population *PopulationSpec
}

// Validate reports whether the options would build a runnable session,
// without building one.
func (o SessionOptions) Validate() error {
	_, err := NewSession(o)
	return err
}

// Admission is the controller's verdict on one stream, available from
// Session.Add before the session runs.
type Admission struct {
	// Admitted reports whether the stream's bandwidth reservation was
	// granted.
	Admitted bool
	// Reason explains a rejection (empty when admitted).
	Reason string
	// ReservedBits is the ring bandwidth reserved in bits/s, Token Ring
	// framing included; zero when rejected.
	//
	//ctmsvet:unit bit/s
	ReservedBits int64
}

// SessionStream is one stream's outcome in a SessionResult.
type SessionStream struct {
	Spec      StreamSpec
	Admission Admission

	// Shed reports the stream was admitted but stopped mid-run by the
	// degradation policy; ShedAt is when.
	Shed   bool
	ShedAt time.Duration

	// Population accounting: Arrived marks a churn-generated stream (at
	// ArrivedAt, watching Zipf-drawn catalog rank Title); Departed marks
	// a natural hang-up at DepartedAt, as opposed to a policy shed.
	Arrived    bool
	ArrivedAt  time.Duration
	Title      int
	Departed   bool
	DepartedAt time.Duration

	Sent      uint64
	Delivered uint64
	Lost      uint64

	// Playout accounting over the stream's active time (until shed or
	// end of run).
	Glitches          uint64
	GlitchesPerMinute float64
	StarvedFraction   float64
	MaxBufferBytes    int
}

// SessionResult is everything one Session run produced.
type SessionResult struct {
	Streams  []SessionStream
	Admitted int
	Rejected int
	Shed     int
	// Departed counts population streams that hung up naturally (churn).
	Departed int

	// PlayoutLatencyP99/P999 are tail quantiles of every delivered
	// packet's delay past its nominal capture schedule; zero unless the
	// session ran a population.
	PlayoutLatencyP99  time.Duration
	PlayoutLatencyP999 time.Duration

	RingUtilization float64
	// ReservedBits is the bandwidth still reserved when the run ended
	// (admitted minus shed).
	//
	//ctmsvet:unit bit/s
	ReservedBits int64
	// Report is the human-readable per-stream summary.
	Report string
}

// WorstAdmittedGlitchRate reports the highest glitches/minute among
// streams that were admitted and never shed (0 when none ran).
func (r *SessionResult) WorstAdmittedGlitchRate() float64 {
	worst := 0.0
	for _, s := range r.Streams {
		if s.Admission.Admitted && !s.Shed && s.GlitchesPerMinute > worst {
			worst = s.GlitchesPerMinute
		}
	}
	return worst
}

// Session runs N concurrent CTMSP streams over one simulated Token Ring,
// with admission control and class-ordered degradation — the multi-stream
// layer §3's bandwidth-guarantee argument implies. Build one with
// NewSession, offer streams with Add (each gets its admission verdict
// immediately), then Run the admitted set:
//
//	s, _ := ctms.NewSession(ctms.SessionOptions{Duration: 20 * time.Second})
//	adm, _ := s.Add(ctms.StreamSpec{Name: "voice", PacketBytes: 500,
//		Interval: 12 * time.Millisecond, Class: ctms.ClassInteractive})
//	if !adm.Admitted {
//		// the ring could not guarantee this stream; adm.Reason says why
//	}
//	res, _ := s.Run()
//
// The run is a deterministic simulation: same options, same streams, same
// results, at any test or sweep parallelism.
type Session struct {
	opts  SessionOptions
	cfg   session.Config
	probe *session.Controller
	ran   bool
}

// NewSession validates the options and prepares an empty session.
func NewSession(opts SessionOptions) (*Session, error) {
	pop, err := opts.Population.toInternal()
	if err != nil {
		return nil, err
	}
	cfg := session.Config{
		Name:             opts.Name,
		Seed:             opts.Seed,
		Duration:         sim.Time(opts.Duration),
		RingBitRate:      opts.RingBitRate,
		UtilizationCap:   opts.UtilizationCap,
		BackgroundUtil:   opts.BackgroundUtil,
		DisableAdmission: opts.DisableAdmission,
		ForceInsertionAt: sim.Time(opts.ForceInsertionAt),
		PlayoutPrebuffer: sim.Time(opts.PlayoutPrebuffer),
		Population:       pop,
	}
	// Validate everything but the streams (none yet): run the config
	// checks against a placeholder stream, which always validates.
	probeCfg := cfg
	probeCfg.Streams = []session.StreamSpec{{PacketBytes: 500, Interval: sim.Millisecond}}
	if err := probeCfg.Validate(); err != nil {
		return nil, err
	}
	s := &Session{opts: opts, cfg: cfg}
	if !opts.DisableAdmission {
		// The controller session.Run will build, so Add's eager verdicts
		// match the run's replayed decisions exactly.
		s.probe = cfg.NewController()
	}
	return s, nil
}

// Add offers one stream to the session and returns its admission verdict
// immediately — rejected streams are recorded (they appear in the result
// with their reason) but consume nothing. The verdict is final: admission
// is first come, first reserved, so Run replays the same decisions.
func (s *Session) Add(spec StreamSpec) (Admission, error) {
	if s.ran {
		return Admission{}, fmt.Errorf("ctms: session already ran")
	}
	class, err := classTable.toCore(spec.Class)
	if err != nil {
		return Admission{}, err
	}
	internal := session.StreamSpec{
		Name:        spec.Name,
		PacketBytes: spec.PacketBytes,
		Interval:    sim.Time(spec.Interval),
		Class:       class,
	}
	probeCfg := s.cfg
	probeCfg.Streams = []session.StreamSpec{internal}
	if err := probeCfg.Validate(); err != nil {
		return Admission{}, err
	}
	id := len(s.cfg.Streams)
	s.cfg.Streams = append(s.cfg.Streams, internal)
	if s.probe == nil { // free-for-all: everything "admitted"
		return Admission{Admitted: true, ReservedBits: internal.OfferedBits()}, nil
	}
	d := s.probe.Admit(id, class, internal.OfferedBits())
	return Admission{Admitted: d.Admitted, Reason: d.Reason, ReservedBits: d.ReservedBits}, nil
}

// Run simulates the session and returns the per-stream outcomes. It can
// run once; build a new Session to run a variation.
func (s *Session) Run() (*SessionResult, error) {
	if s.ran {
		return nil, fmt.Errorf("ctms: session already ran")
	}
	s.ran = true
	res, err := session.Run(s.cfg)
	if err != nil {
		return nil, err
	}
	out := &SessionResult{
		Admitted:        res.Admitted,
		Rejected:        res.Rejected,
		Shed:            res.ShedN,
		Departed:        res.Departed,
		RingUtilization: res.RingUtilization,
		ReservedBits:    res.ReservedBitsEnd,
		Report:          res.Report(),
	}
	if res.PlayoutLatency != nil && res.PlayoutLatency.N() > 0 {
		out.PlayoutLatencyP99 = time.Duration(res.PlayoutLatency.Quantile(0.99)) * time.Microsecond
		out.PlayoutLatencyP999 = time.Duration(res.PlayoutLatency.Quantile(0.999)) * time.Microsecond
	}
	for _, st := range res.Streams {
		out.Streams = append(out.Streams, SessionStream{
			Spec: StreamSpec{
				Name:        st.Spec.Name,
				PacketBytes: st.Spec.PacketBytes,
				Interval:    st.Spec.Interval.Std(),
				Class:       classTable.fromCore(st.Spec.Class),
			},
			Admission: Admission{
				Admitted:     st.Decision.Admitted,
				Reason:       st.Decision.Reason,
				ReservedBits: st.Decision.ReservedBits,
			},
			Shed:              st.Shed,
			ShedAt:            st.ShedAt.Std(),
			Arrived:           st.Arrived,
			ArrivedAt:         st.ArrivedAt.Std(),
			Title:             st.Title,
			Departed:          st.Departed,
			DepartedAt:        st.DepartedAt.Std(),
			Sent:              st.Sent,
			Delivered:         st.Delivered,
			Lost:              st.Lost,
			Glitches:          st.Glitches,
			GlitchesPerMinute: st.GlitchesPerMinute(),
			StarvedFraction:   st.StarvedFraction(),
			MaxBufferBytes:    st.MaxBufferBytes,
		})
	}
	return out, nil
}
