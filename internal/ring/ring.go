package ring

import (
	"fmt"

	"repro/internal/sim"
)

// Config sets the physical parameters of the ring.
type Config struct {
	// BitRate is the signalling rate; the paper's ring runs at 4 Mbit/s.
	BitRate int64
	// StationLatency is the per-station repeat delay (≈1 bit plus elastic
	// buffer). With 70 stations this contributes ~20–40 µs of ring latency.
	StationLatency sim.Time
	// CableLatency is the propagation delay around the cable itself.
	CableLatency sim.Time
	// TokenOverhead is the fixed cost of capturing a free token.
	TokenOverhead sim.Time
	// PurgeDuration is the outage caused by one Ring Purge (token lost,
	// purge MAC frame circulates, new token issued) — ~10 ms per the
	// paper's §5.3 analysis of the 120–130 ms outliers.
	PurgeDuration sim.Time
	// Seed drives the token-wait jitter stream.
	Seed int64
}

// DefaultConfig returns the parameters of the paper's ring: 4 Mbit/s,
// 70 stations' worth of repeat latency, 10 ms purge outage.
func DefaultConfig() Config {
	return Config{
		BitRate:        4_000_000,
		StationLatency: 300 * sim.Nanosecond, // ~1.2 bits per station
		CableLatency:   5 * sim.Microsecond,
		TokenOverhead:  30 * sim.Microsecond,
		PurgeDuration:  10 * sim.Millisecond,
		Seed:           1,
	}
}

// Tap observes every frame on the ring (data and MAC), as IBM's TAP
// monitor does. start/end bracket the frame's time on the wire.
type Tap func(f *Frame, start, end sim.Time, status DeliveryStatus)

type txRequest struct {
	st     *Station
	f      *Frame
	onDone func(DeliveryStatus)
	queued sim.Time
}

// Counters aggregates ring-level accounting.
type Counters struct {
	FramesSent    uint64
	BytesSent     uint64
	MACFrames     uint64
	DataFrames    uint64
	PurgeCount    uint64
	PurgeLost     uint64
	NotCopied     uint64
	BusyTime      sim.Time
	TokenWaitMax  sim.Time
	QueueWaitMax  sim.Time
	ByPriority    [8]uint64
	InsertionSeen uint64
}

// Ring is the shared medium. Exactly one frame occupies it at a time;
// contending transmitters wait for the token, which the model grants to
// the highest reservation priority first and round-robin within a
// priority, approximating the 802.5 priority/reservation protocol.
//
//ctmsvet:shardowned
type Ring struct {
	sched    *sim.Scheduler
	cfg      Config
	rng      *sim.RNG
	stations []*Station
	byAddr   map[Addr]*Station
	queues   [8][]*txRequest
	rrCursor int // round-robin start position within a priority class

	busy       bool
	current    *txRequest
	currentEnd sim.Time
	purging    bool
	purgeEnd   sim.Time

	taps       []Tap
	purgeHooks []func(at sim.Time)
	reserved   int64
	seq        uint64
	c          Counters
}

// New creates a ring driven by sched.
func New(sched *sim.Scheduler, cfg Config) *Ring {
	sim.Checkf(cfg.BitRate > 0, "ring bit rate must be positive")
	if cfg.PurgeDuration <= 0 {
		cfg.PurgeDuration = DefaultConfig().PurgeDuration
	}
	return &Ring{
		sched:  sched,
		cfg:    cfg,
		rng:    sim.NewRNG(cfg.Seed).Fork("ring-token-jitter"),
		byAddr: make(map[Addr]*Station),
	}
}

// Scheduler exposes the driving scheduler (stations and workloads need it).
func (r *Ring) Scheduler() *sim.Scheduler { return r.sched }

// Config reports the ring's physical parameters.
func (r *Ring) Config() Config { return r.cfg }

// Counters returns a snapshot of ring accounting.
func (r *Ring) Counters() Counters { return r.c }

// Utilization reports the fraction of elapsed time the ring carried a frame.
func (r *Ring) Utilization() float64 {
	now := r.sched.Now()
	if now == 0 {
		return 0
	}
	return float64(r.c.BusyTime) / float64(now)
}

// AddTap registers a promiscuous monitor.
func (r *Ring) AddTap(t Tap) { r.taps = append(r.taps, t) }

// OnPurge registers fn to run at the start of every Ring Purge. Real
// adapters cannot interrupt the host on a purge (§4), so this hook models
// what a ring-attached observer — the Active Monitor's view, or an
// admission controller watching effective capacity — can see, not what a
// station's driver can.
func (r *Ring) OnPurge(fn func(at sim.Time)) { r.purgeHooks = append(r.purgeHooks, fn) }

// ReserveBits records bandwidth (bits/s) promised to a connection by an
// admission controller; negative n releases a prior reservation. The ring
// itself does not police reservations — the 802.5 priority mechanism is
// the enforcement — but the bookkeeping lets tools report how much of the
// wire is spoken for.
//
//ctmsvet:unit bit/s n
func (r *Ring) ReserveBits(n int64) {
	r.reserved += n
	sim.Checkf(r.reserved >= 0, "ring reservation went negative")
}

// ReservedBits reports the bandwidth currently promised to connections.
//
//ctmsvet:unit bit/s result
func (r *Ring) ReservedBits() int64 { return r.reserved }

// WireTime reports how long a frame of n bytes occupies the ring,
// including per-station repeat and cable latency.
func (r *Ring) WireTime(n int) sim.Time {
	lat := sim.Time(len(r.stations))*r.cfg.StationLatency + r.cfg.CableLatency
	return sim.WireTime(n, r.cfg.BitRate) + lat
}

// Attach creates a station, inserts it into the ring quietly (no purge —
// used for initial topology construction) and returns it.
func (r *Ring) Attach(name string) *Station {
	addr := Addr(len(r.stations) + 1)
	st := &Station{ring: r, addr: addr, name: name, inserted: true}
	r.stations = append(r.stations, st)
	r.byAddr[addr] = st
	return st
}

// Station looks up a station by address.
func (r *Ring) Station(a Addr) *Station {
	return r.byAddr[a]
}

// Stations reports how many stations are attached.
func (r *Ring) Stations() int { return len(r.stations) }

// submit queues a transmit request and starts service if the ring is free.
func (r *Ring) submit(req *txRequest) {
	p := req.f.Priority
	sim.Checkf(p >= 0 && p < 8, "frame priority %d out of range", p)
	req.queued = r.sched.Now()
	r.queues[p] = append(r.queues[p], req)
	r.maybeStart()
}

// next dequeues the highest-priority pending request, round-robin within
// the class so no station starves.
func (r *Ring) next() *txRequest {
	for p := 7; p >= 0; p-- {
		q := r.queues[p]
		if len(q) == 0 {
			continue
		}
		// Round-robin: prefer the first request from a station at or
		// after the cursor; fall back to the head.
		pick := 0
		for i, req := range q {
			if int(req.st.addr) >= r.rrCursor {
				pick = i
				break
			}
		}
		req := q[pick]
		r.queues[p] = append(q[:pick], q[pick+1:]...)
		r.rrCursor = int(req.st.addr) + 1
		if r.rrCursor > len(r.stations) {
			r.rrCursor = 0
		}
		return req
	}
	return nil
}

func (r *Ring) maybeStart() {
	if r.busy || r.purging {
		return
	}
	req := r.next()
	if req == nil {
		return
	}
	r.start(req)
}

func (r *Ring) start(req *txRequest) {
	now := r.sched.Now()
	if !req.st.inserted {
		// A de-inserted station cannot transmit; fail immediately.
		req.done(DeliveryStatus{CompletedAt: now})
		r.sched.After(0, r.maybeStart)
		return
	}
	// Token acquisition: fixed overhead plus jitter for where the token
	// happens to be on the ring.
	rotation := sim.Time(len(r.stations))*r.cfg.StationLatency + r.cfg.CableLatency
	tokenWait := r.cfg.TokenOverhead + r.rng.Uniform(0, rotation)
	if w := now - req.queued + tokenWait; w > r.c.QueueWaitMax {
		r.c.QueueWaitMax = w
	}
	if tokenWait > r.c.TokenWaitMax {
		r.c.TokenWaitMax = tokenWait
	}

	wire := r.WireTime(req.f.Size)
	start := now + tokenWait
	end := start + wire

	r.busy = true
	r.current = req
	r.currentEnd = end
	req.f.Seq = r.seq
	r.seq++

	r.sched.At(end, func() {
		if r.current != req {
			return // purged mid-flight; purge handler finished it
		}
		r.finish(req, start, end, false)
	})
}

// finish completes a transmission: delivers the frame, notifies taps and
// the transmitter, and starts the next pending request.
func (r *Ring) finish(req *txRequest, start, end sim.Time, purged bool) {
	r.busy = false
	r.current = nil

	status := DeliveryStatus{CompletedAt: r.sched.Now()}
	if purged {
		status.PurgeLost = true
		r.c.PurgeLost++
	} else {
		r.deliver(req.f, &status)
		r.sched.Trace().AddEvent(r.sched.Now(), EvTx, int64(req.f.Seq), int64(req.f.Size))
		r.c.FramesSent++
		r.c.BytesSent += uint64(req.f.Size)
		r.c.ByPriority[req.f.Priority]++
		if req.f.Kind == MAC {
			r.c.MACFrames++
		} else {
			r.c.DataFrames++
		}
		r.c.BusyTime += end - start
	}

	for _, tap := range r.taps {
		tap(req.f, start, end, status)
	}
	req.done(status)
	r.maybeStart()
}

func (r *Ring) deliver(f *Frame, status *DeliveryStatus) {
	if f.Dst == Broadcast || f.Kind == MAC {
		for _, st := range r.stations {
			if !st.inserted || st == r.byAddr[f.Src] {
				continue
			}
			if f.Kind == MAC && !st.promiscuousMAC {
				continue // adapters normally strip MAC frames in ROM
			}
			if st.receive != nil {
				st.receive(f, r.sched.Now())
			}
		}
		status.Delivered = true
		status.AddrRecognized = true
		status.FrameCopied = true
		return
	}
	dst := r.byAddr[f.Dst]
	if dst == nil || !dst.inserted {
		return // A and C bits stay clear
	}
	status.AddrRecognized = true
	if dst.receive == nil || !dst.canCopy() {
		r.c.NotCopied++
		return // address recognized but frame not copied (receiver congested)
	}
	status.FrameCopied = true
	status.Delivered = true
	dst.receive(f, r.sched.Now())
}

func (req *txRequest) done(s DeliveryStatus) {
	if req.onDone != nil {
		req.onDone(s)
	}
}

// Purge simulates one Ring Purge: the token is lost, any frame in flight
// is destroyed (with no indication to its transmitter), and the ring is
// unusable for PurgeDuration while the Active Monitor purges and issues a
// new token.
func (r *Ring) Purge() {
	now := r.sched.Now()
	r.c.PurgeCount++
	r.sched.Trace().AddEvent(now, EvPurge, int64(r.c.PurgeCount), int64(r.cfg.PurgeDuration))
	for _, fn := range r.purgeHooks {
		fn(now)
	}
	if r.busy && r.current != nil {
		req := r.current
		r.current = nil
		r.busy = false
		r.finishPurged(req)
	}
	end := now + r.cfg.PurgeDuration
	if r.purging && end <= r.purgeEnd {
		return
	}
	r.purgeEnd = end
	if !r.purging {
		r.purging = true
		r.schedulePurgeEnd()
	}
}

func (r *Ring) finishPurged(req *txRequest) {
	status := DeliveryStatus{PurgeLost: true, CompletedAt: r.sched.Now()}
	r.c.PurgeLost++
	for _, tap := range r.taps {
		tap(req.f, r.sched.Now(), r.sched.Now(), status)
	}
	req.done(status)
}

func (r *Ring) schedulePurgeEnd() {
	end := r.purgeEnd
	r.sched.At(end, func() {
		if r.purgeEnd > end {
			r.schedulePurgeEnd() // extended by an overlapping purge
			return
		}
		r.purging = false
		// The purge completes with a Ring Purge MAC frame on the wire.
		am := r.activeMonitor()
		if am != nil {
			am.Transmit(NewMACFrame(am.addr, MACRingPurge), nil)
		}
		r.maybeStart()
	})
}

// activeMonitor is the lowest-addressed inserted station.
func (r *Ring) activeMonitor() *Station {
	for _, st := range r.stations {
		if st.inserted {
			return st
		}
	}
	return nil
}

// Insertion simulates a station inserting into the ring, which the paper
// observed to cause bursts of back-to-back purges (up to ~10, accounting
// for the 120–130 ms outliers). purges is the burst length.
func (r *Ring) Insertion(purges int) {
	sim.Checkf(purges > 0, "insertion needs at least one purge")
	r.c.InsertionSeen++
	r.sched.Trace().AddEvent(r.sched.Now(), EvInsertion, int64(purges), 0)
	for i := 0; i < purges; i++ {
		d := sim.Time(i) * r.cfg.PurgeDuration
		r.sched.After(d, r.Purge)
	}
}

// Purging reports whether the ring is currently unusable due to a purge.
func (r *Ring) Purging() bool { return r.purging }

// Busy reports whether a frame currently occupies the ring.
func (r *Ring) Busy() bool { return r.busy }

// Current returns the frame occupying the ring, or nil. Tests use it to
// time fault injection deterministically.
func (r *Ring) Current() *Frame {
	if r.current == nil {
		return nil
	}
	return r.current.f
}

// String summarizes ring state.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{stations=%d busy=%t purging=%t sent=%d util=%.2f%% reserved=%dbps}",
		len(r.stations), r.busy, r.purging, r.c.FramesSent, 100*r.Utilization(), r.reserved)
}
