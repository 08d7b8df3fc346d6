package ring

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// The ring's physical constants.
const (
	// DefaultBitRate is the paper's signalling rate: 4 Mbit/s.
	DefaultBitRate = 4_000_000
	// StationLatency is the per-station repeat delay (≈1 bit plus elastic
	// buffer). With 70 stations this contributes ~20–40 µs of ring latency.
	StationLatency = 300 * sim.Nanosecond // ~1.2 bits per station
	// CableLatency is the propagation delay around the cable itself.
	CableLatency = 5 * sim.Microsecond
	// TokenOverhead is the fixed cost of capturing a free token.
	TokenOverhead = 30 * sim.Microsecond
	// PurgeDuration is the outage caused by one Ring Purge (token lost,
	// purge MAC frame circulates, new token issued) — ~10 ms per the
	// paper's §5.3 analysis of the 120–130 ms outliers.
	PurgeDuration = 10 * sim.Millisecond
)

// Config sets the ring's rate and jitter stream.
type Config struct {
	// BitRate is the signalling rate; the paper's ring runs at 4 Mbit/s.
	BitRate int64
	// Seed drives the token-wait jitter stream.
	Seed int64
}

// DefaultConfig returns the parameters of the paper's ring: 4 Mbit/s.
func DefaultConfig() Config {
	return Config{BitRate: DefaultBitRate, Seed: 1}
}

// Tap observes every frame on the ring (data and MAC), as IBM's TAP
// monitor does. start/end bracket the frame's time on the wire.
type Tap func(f *Frame, start, end sim.Time, status DeliveryStatus)

// txRequest is one queued or in-flight transmission. Requests are pooled
// per ring: each carries a prebuilt end-of-frame callback, and returns to
// the pool only once nothing can reach it any more — after the transmitter
// learned the outcome and, for a frame that went on the wire, after its
// end-of-frame event fired. A purged frame's end event still fires (and
// finds the request no longer current), so a request is never reused
// while a stale end event for it is pending.
type txRequest struct {
	st         *Station
	f          *Frame
	onDone     func(DeliveryStatus)
	queued     sim.Time
	start, end sim.Time // wire interval, set when the frame starts
	endFn      func()   // prebuilt end-of-frame callback
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
	stations []*Station // stations[a-1] has address a
	// promisc holds the promiscuous-MAC stations in address (attach)
	// order: the only stations a MAC frame can reach.
	promisc  []*Station
	queues   [8][]*txRequest
	rrCursor int // round-robin start position within a priority class

	busy       bool
	current    *txRequest
	currentEnd sim.Time
	purging    bool
	purgeEnd   sim.Time

	taps       []Tap
	purgeHooks []func(at sim.Time)
	seq        uint64
	c          Counters

	reqFree      sim.FreeList[txRequest]
	maybeStartFn func() // prebuilt r.maybeStart for deferred restarts
}

// New creates a ring driven by sched.
func New(sched *sim.Scheduler, cfg Config) *Ring {
	sim.Checkf(cfg.BitRate > 0, "ring bit rate must be positive")
	r := &Ring{
		sched: sched,
		cfg:   cfg,
		rng:   sim.NewRNG(sim.ForkSeed(cfg.Seed, "ring-token-jitter")),
	}
	r.maybeStartFn = r.maybeStart
	return r
}

// getReq pops a free transmit request, building one (with its permanent
// end-of-frame callback) on the cold path only.
func (r *Ring) getReq() *txRequest {
	if req := r.reqFree.Get(); req != nil {
		return req
	}
	req := &txRequest{}
	req.endFn = func() {
		if r.current != req {
			// Purged mid-flight: the purge handler already finished it,
			// and this stale event was the last reference.
			r.putReq(req)
			return
		}
		r.finish(req, req.start, req.end, false)
	}
	return req
}

// putReq clears a finished request and returns it to the pool.
func (r *Ring) putReq(req *txRequest) {
	req.st, req.f, req.onDone = nil, nil, nil
	r.reqFree.Put(req)
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

// WireTime reports how long a frame of n bytes occupies the ring,
// including per-station repeat and cable latency.
func (r *Ring) WireTime(n int) sim.Time {
	lat := sim.Time(len(r.stations))*StationLatency + CableLatency
	return sim.WireTime(n, r.cfg.BitRate) + lat
}

// Attach creates a station, inserts it into the ring quietly (no purge —
// used for initial topology construction) and returns it. Addresses are
// handed out densely from 1, so a station's address is its index in the
// ring's station list plus one.
func (r *Ring) Attach(name string) *Station {
	addr := Addr(len(r.stations) + 1)
	if addr == Broadcast {
		sim.Checkf(false, "ring is full: address %d is the broadcast address", addr)
	}
	st := &Station{ring: r, addr: addr, name: name, inserted: true}
	r.stations = append(r.stations, st)
	return st
}

// Station looks up a station by address. Address 0, Broadcast and
// addresses no station was given report nil.
func (r *Ring) Station(a Addr) *Station {
	i := int(a) - 1
	if i < 0 || i >= len(r.stations) {
		return nil
	}
	return r.stations[i]
}

// setPromiscuousMAC adds st to, or removes it from, the promiscuous-MAC
// index, keeping the index in address order.
func (r *Ring) setPromiscuousMAC(st *Station, on bool) {
	i, found := slices.BinarySearchFunc(r.promisc, st.addr, func(s *Station, a Addr) int { return cmp.Compare(s.addr, a) })
	switch {
	case on && !found:
		r.promisc = slices.Insert(r.promisc, i, st)
	case !on && found:
		r.promisc = slices.Delete(r.promisc, i, i+1)
	}
}

// Stations reports how many stations are attached.
func (r *Ring) Stations() int { return len(r.stations) }

// submit queues a transmit request and starts service if the ring is free.
func (r *Ring) submit(req *txRequest) {
	p := req.f.Priority
	if p < 0 || p >= 8 {
		sim.Checkf(false, "frame priority %d out of range", p)
	}
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
		req.f.Release()
		r.putReq(req)
		r.sched.After(0, r.maybeStartFn)
		return
	}
	// Token acquisition: fixed overhead plus jitter for where the token
	// happens to be on the ring.
	rotation := sim.Time(len(r.stations))*StationLatency + CableLatency
	tokenWait := TokenOverhead + r.rng.Uniform(0, rotation)
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

	req.start, req.end = start, end
	r.sched.At(end, req.endFn)
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
	req.f.Release() // the transmission's reference (Frame.SetRecycle)
	r.putReq(req)
	r.maybeStart()
}

func (r *Ring) deliver(f *Frame, status *DeliveryStatus) {
	if f.Dst == Broadcast || f.Kind == MAC {
		src := r.Station(f.Src)
		receivers := r.stations
		if f.Kind == MAC {
			receivers = r.promisc // adapters normally strip MAC frames in ROM
		}
		for _, st := range receivers {
			if !st.inserted || st == src {
				continue
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
	dst := r.Station(f.Dst)
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
	r.sched.Trace().AddEvent(now, EvPurge, int64(r.c.PurgeCount), int64(PurgeDuration))
	for _, fn := range r.purgeHooks {
		fn(now)
	}
	if r.busy && r.current != nil {
		req := r.current
		r.current = nil
		r.busy = false
		r.finishPurged(req)
	}
	end := now + PurgeDuration
	if r.purging && end <= r.purgeEnd {
		return
	}
	r.purgeEnd = end
	if !r.purging {
		r.purging = true
		r.schedulePurgeEnd()
	}
}

// finishPurged reports a purge loss to the transmitter and drops the
// transmission's frame reference. The request stays out of the pool: its
// end-of-frame event is still pending and recycles it, without reading
// the frame.
func (r *Ring) finishPurged(req *txRequest) {
	status := DeliveryStatus{PurgeLost: true, CompletedAt: r.sched.Now()}
	r.c.PurgeLost++
	for _, tap := range r.taps {
		tap(req.f, r.sched.Now(), r.sched.Now(), status)
	}
	req.done(status)
	req.f.Release()
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
		d := sim.Time(i) * PurgeDuration
		r.sched.After(d, r.Purge)
	}
}

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
	return fmt.Sprintf("ring{stations=%d busy=%t purging=%t sent=%d util=%.2f%%}",
		len(r.stations), r.busy, r.purging, r.c.FramesSent, 100*r.Utilization())
}
