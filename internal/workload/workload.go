// Package workload generates the background activity the paper's public
// Token Ring carried during Test Case B, in the three size classes its
// traffic analysis identifies (§5.3): ~20-byte MAC frames (0.2–1.0 % of
// the ring), 60–300-byte AFS/ARP/socket keep-alives, and 1522-byte file
// transfer packets from compiles and kernel copies. It also generates the
// station insertions (~20/day) whose Ring Purge bursts produce the
// 120–130 ms outliers.
//
// Each generator forks its RNG from the seed it is given
// (sim.ForkSeed) and builds its scheduler callback once; those that put
// frames on the ring themselves draw them from a pool of their own. A
// running generator allocates nothing per frame.
package workload

import (
	"repro/internal/inet"
	"repro/internal/ring"
	"repro/internal/sim"
)

// framePool recycles one generator's ring frames. A frame goes back once
// the ring and every receiver holding it are done with it
// (ring.Frame.SetRecycle): MAC frames and frames to stations with no
// receive handler right after the transmit-complete callback, frames to an
// adapter once its driver has classified or dropped them.
type framePool struct {
	free    sim.FreeList[ring.Frame]
	recycle func(*ring.Frame) // prebuilt put
}

func (p *framePool) init() { p.recycle = p.put }

// send transmits fr from st in a pooled frame.
func (p *framePool) send(st *ring.Station, fr ring.Frame) {
	f := p.free.Get()
	if f == nil {
		f = new(ring.Frame)
	}
	*f = fr
	f.SetRecycle(p.recycle)
	st.Transmit(f, nil)
}

// put clears a dead frame — a holder that read it now would see an empty
// frame, not a later one — and returns it to the pool.
func (p *framePool) put(f *ring.Frame) {
	*f = ring.Frame{}
	p.free.Put(f)
}

// MACGen emits ~20-byte MAC management frames from a monitor station at
// an exponential rate chosen to hit a target ring utilization.
type MACGen struct {
	r      *ring.Ring
	st     *ring.Station
	rng    *sim.RNG
	mean   sim.Time
	frames uint64
	stop   bool
	fireFn func() // prebuilt g.fire
	pool   framePool
}

// NewMACGen starts the generator. util is the target fraction of ring
// bandwidth (the paper observed 0.002–0.010).
func NewMACGen(r *ring.Ring, st *ring.Station, util float64, seed int64) *MACGen {
	sim.Checkf(util > 0 && util < 1, "MAC utilization %v out of range", util)
	frameTime := sim.WireTime(20, r.Config().BitRate)
	g := &MACGen{
		r:    r,
		st:   st,
		rng:  sim.NewRNG(sim.ForkSeed(seed, "mac-gen")),
		mean: sim.Scale(frameTime, 1/util),
	}
	g.fireFn = g.fire
	g.pool.init()
	g.arm()
	return g
}

// Frames reports how many MAC frames have been sent.
func (g *MACGen) Frames() uint64 { return g.frames }

// Stop halts the generator.
func (g *MACGen) Stop() { g.stop = true }

func (g *MACGen) arm() { g.r.Scheduler().After(g.rng.Exp(g.mean), g.fireFn) }

func (g *MACGen) fire() {
	if g.stop {
		return
	}
	typ := ring.MACActiveMonitorPresent
	if g.rng.Bool(0.5) {
		typ = ring.MACStandbyMonitorPresent
	}
	g.pool.send(g.st, ring.MACFrame(g.st.Addr(), typ))
	g.frames++
	g.arm()
}

// ChatterGen sends raw data frames of a given size range between two
// third-party stations — the keep-alive class traffic that belongs to
// machines not otherwise modelled.
type ChatterGen struct {
	r        *ring.Ring
	src, dst *ring.Station
	rng      *sim.RNG
	mean     sim.Time
	lo, hi   int
	frames   uint64
	stop     bool
	fireFn   func() // prebuilt g.fire
	pool     framePool
}

// NewChatterGen starts a generator emitting frames of lo..hi total bytes
// with exponential interarrivals of the given mean.
func NewChatterGen(r *ring.Ring, src, dst *ring.Station, lo, hi int, mean sim.Time, seed int64) *ChatterGen {
	sim.Checkf(lo > 0 && hi >= lo, "chatter size range [%d,%d] invalid", lo, hi)
	g := &ChatterGen{r: r, src: src, dst: dst, rng: sim.NewRNG(sim.ForkSeed(seed, "chatter")), mean: mean, lo: lo, hi: hi}
	g.fireFn = g.fire
	g.pool.init()
	g.arm()
	return g
}

// Frames reports how many frames have been sent.
func (g *ChatterGen) Frames() uint64 { return g.frames }

// Stop halts the generator.
func (g *ChatterGen) Stop() { g.stop = true }

func (g *ChatterGen) arm() { g.r.Scheduler().After(g.rng.Exp(g.mean), g.fireFn) }

func (g *ChatterGen) fire() {
	if g.stop {
		return
	}
	size := g.lo + g.rng.Intn(g.hi-g.lo+1)
	g.pool.send(g.src, ring.DataFrame(g.src.Addr(), g.dst.Addr(), 0, size, nil, nil))
	g.frames++
	g.arm()
}

// FileTransferGen emits bursts of 1522-byte frames — a compile's file
// transfers or a kernel copy — between two stations. Burst lengths are
// heavy-tailed; frames within a burst are paced at the source's disk/CPU
// rate, not back-to-back, matching how AFS fetches looked on the wire.
type FileTransferGen struct {
	r         *ring.Ring
	src, dst  *ring.Station
	rng       *sim.RNG
	burstMean sim.Time
	frameGap  sim.Time
	durLo     sim.Time
	durHi     sim.Time
	alpha     float64
	frames    uint64
	bursts    uint64
	stop      bool
	left      int    // frames still to send in the current burst
	burstFn   func() // prebuilt g.burst
	nextFn    func() // prebuilt g.next
	pool      framePool
}

// NewFileTransferGen starts the generator. burstMean is the mean time
// between bursts; frameGap is the pacing between frames inside a burst.
func NewFileTransferGen(r *ring.Ring, src, dst *ring.Station, burstMean, frameGap sim.Time, seed int64) *FileTransferGen {
	g := &FileTransferGen{
		r: r, src: src, dst: dst,
		rng:       sim.NewRNG(sim.ForkSeed(seed, "file-transfer")),
		burstMean: burstMean,
		frameGap:  frameGap,
		durLo:     2 * sim.Millisecond,
		durHi:     40 * sim.Millisecond,
		alpha:     1.2,
	}
	g.burstFn, g.nextFn = g.burst, g.next
	g.pool.init()
	g.arm()
	return g
}

// SetBurst changes the heavy-tailed burst-duration distribution: bounded
// Pareto on [lo, hi] with the given shape. Longer bursts model compiles
// and kernel copies that monopolize a client for hundreds of
// milliseconds.
func (g *FileTransferGen) SetBurst(lo, hi sim.Time, alpha float64) {
	sim.Checkf(hi > lo && lo > 0 && alpha > 0, "bad burst parameters")
	g.durLo, g.durHi, g.alpha = lo, hi, alpha
}

// Frames reports total frames sent; Bursts reports burst count.
func (g *FileTransferGen) Frames() uint64 { return g.frames }

// Bursts reports how many bursts have run.
func (g *FileTransferGen) Bursts() uint64 { return g.bursts }

// Stop halts the generator.
func (g *FileTransferGen) Stop() { g.stop = true }

func (g *FileTransferGen) arm() { g.r.Scheduler().After(g.rng.Exp(g.burstMean), g.burstFn) }

// burst starts a burst: its length in frames, then the first frame.
func (g *FileTransferGen) burst() {
	if g.stop {
		return
	}
	g.bursts++
	n := int(g.rng.Pareto(g.durLo, g.durHi, g.alpha) / g.frameGap)
	if n < 1 {
		n = 1
	}
	g.left = n
	g.next()
}

// next sends the burst's next frame and paces the one after it, or arms
// the next burst once this one is done.
func (g *FileTransferGen) next() {
	if g.left <= 0 || g.stop {
		g.arm()
		return
	}
	g.pool.send(g.src, ring.DataFrame(g.src.Addr(), g.dst.Addr(), 0, 1522, nil, nil))
	g.frames++
	g.left--
	g.r.Scheduler().After(g.frameGap+g.rng.Uniform(0, g.frameGap), g.nextFn)
}

// InsertionGen inserts stations into the ring at Poisson intervals
// (~20/day in the paper). Each insertion causes a burst of back-to-back
// Ring Purges ("on the order of 10").
type InsertionGen struct {
	r          *ring.Ring
	rng        *sim.RNG
	mean       sim.Time
	insertions uint64
	stop       bool
	fireFn     func() // prebuilt g.fire
}

// NewInsertionGen starts the generator with the given mean interval.
func NewInsertionGen(r *ring.Ring, mean sim.Time, seed int64) *InsertionGen {
	g := &InsertionGen{r: r, rng: sim.NewRNG(sim.ForkSeed(seed, "insertions")), mean: mean}
	g.fireFn = g.fire
	g.arm()
	return g
}

// Insertions reports how many insertions have occurred.
func (g *InsertionGen) Insertions() uint64 { return g.insertions }

// Stop halts the generator.
func (g *InsertionGen) Stop() { g.stop = true }

func (g *InsertionGen) arm() { g.r.Scheduler().After(g.rng.Exp(g.mean), g.fireFn) }

func (g *InsertionGen) fire() {
	if g.stop {
		return
	}
	g.insertions++
	// 10–13 back-to-back purges ⇒ a 100–130 ms outage.
	g.r.Insertion(10 + g.rng.Intn(4))
	g.arm()
}

// KeepAliveGen drives periodic small datagrams through a machine's OWN
// protocol stack — AFS keep-alives and the control connection's socket
// traffic. Unlike ChatterGen this consumes the sending machine's CPU and
// driver queue, which is what perturbs the CTMSP stream in Figure 5-2.
type KeepAliveGen struct {
	stack  *inet.Stack
	dst    ring.Addr
	rng    *sim.RNG
	mean   sim.Time
	lo, hi int
	sent   uint64
	stop   bool
	sched  *sim.Scheduler
	fireFn func() // prebuilt g.fire
}

// NewKeepAliveGen starts the generator on the given stack.
func NewKeepAliveGen(sched *sim.Scheduler, stack *inet.Stack, dst ring.Addr, lo, hi int, mean sim.Time, seed int64) *KeepAliveGen {
	g := &KeepAliveGen{sched: sched, stack: stack, dst: dst, rng: sim.NewRNG(sim.ForkSeed(seed, "keepalive")), mean: mean, lo: lo, hi: hi}
	g.fireFn = g.fire
	g.arm()
	return g
}

// Sent reports how many keep-alives were sent.
func (g *KeepAliveGen) Sent() uint64 { return g.sent }

// Stop halts the generator.
func (g *KeepAliveGen) Stop() { g.stop = true }

func (g *KeepAliveGen) arm() { g.sched.After(g.rng.Exp(g.mean), g.fireFn) }

func (g *KeepAliveGen) fire() {
	if g.stop {
		return
	}
	size := g.lo + g.rng.Intn(g.hi-g.lo+1)
	g.stack.SendDatagram(g.dst, size, 0, nil)
	g.sent++
	g.arm()
}
