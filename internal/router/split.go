package router

import (
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// Half is one port of a router: one ring attachment and the RT/PC
// forwarding work for frames crossing it. Its only coupling to the other
// side is the Forward callback, so the two ends of a bridge can share a
// machine (NewPair) or live on different sim.Schedulers. A sharded
// topology (internal/topo) gives each ring its own shard; the bridge
// between two rings is then a pair of Halves whose frames leave one shard
// as plain values and re-enter the other via Inject after the link's
// store-and-forward latency, which is what makes the conservative
// lookahead window real rather than assumed.
//
// A Half's ingress makes the switch decision, does one CPU copy out of
// the fixed DMA buffer, then hands off. The egress side (Inject)
// allocates an mbuf chain on its own kernel and queues the frame on its
// adapter, re-addressed to either the final station or the next bridge
// along the path.
type Half struct {
	k       *kernel.Kernel
	drv     *tradapter.Driver
	ringIdx int
	// nextHop[r] is the station address on THIS ring of the bridge half
	// that continues toward internetwork ring r; 0 means no route.
	nextHop []ring.Addr
	stats   HalfStats
	envs    envPool
	// prog is the ingress program scratch (the driver copies it), and
	// hands the pool of per-frame hand-off records its final mark reads.
	prog  []rtpc.Seg
	hands sim.FreeList[handoff]

	// Forward receives each frame this half decided to forward, after the
	// switch and copy segments complete. The shard engine wires it to the
	// cross-shard link; it must not touch this shard's state afterwards.
	Forward func(Forwarded)
}

// envPool is the free list of injected-frame envelopes. An envelope
// returns here only after the driver's two-phase recycle (transmit done
// AND receive handler returned), so a reused envelope can never be read
// by a frame still in flight. Every transition happens on the owning
// ring's scheduler — the pool never crosses a shard.
//
//ctmsvet:shardowned
type envPool struct {
	sim.FreeList[env]
}

// env is one injected-frame envelope: an Outgoing with a permanently
// attached chain shell and a prebuilt Done that frees the chain's mbufs
// at transmit complete, the capture bytes its frame carries, and the
// prebuilt hook that recycles it.
type env struct {
	out     tradapter.Outgoing
	capture [ring.MaxCapture]byte
	recycle func(*tradapter.Outgoing)
}

// handoff is one frame between the switch decision and the hand-off to
// the peer shard: the values the final mark forwards, with that mark
// prebuilt. A record returns to its half's pool when the mark runs.
type handoff struct {
	fwd Forwarded
	fn  func()
}

// Forwarded is a frame in flight between two halves of a split bridge:
// plain values only, so it can cross a shard boundary without sharing
// memory with the shard that produced it.
type Forwarded struct {
	// DstRing is the 0-based internetwork index of the final ring.
	DstRing int
	// Dst is the final station address in DstRing's address space.
	Dst   ring.Addr
	Size  int
	Class tradapter.Class
	Tag   any
	// Capture holds the frame's first CaptureLen monitor bytes by value:
	// the source envelope's buffer is reused for a later packet once the
	// frame's life on its ring is over.
	Capture    [ring.MaxCapture]byte
	CaptureLen int
}

// HalfStats aggregates one half's forwarding accounting.
type HalfStats struct {
	Forwarded uint64 // frames this half accepted from its ring and passed on
	Bytes     uint64
	Injected  uint64 // frames this half re-transmitted onto its ring
	Dropped   uint64 // unroutable ingress or mbuf exhaustion on egress
	QueueMax  int
}

// NewHalf builds one port of a split bridge on its own machine attached
// to rg, which is internetwork ring ringIdx of rings total.
func NewHalf(name string, rg *ring.Ring, ringIdx, rings int, seed int64) *Half {
	return newHalf(tradapter.NewHost(rg, name, seed, halfConfig()), ringIdx, rings)
}

// halfConfig is a router adapter's configuration: routers copy; keep DMA fast.
func halfConfig() tradapter.Config {
	cfg := tradapter.DefaultConfig()
	cfg.DMABufferKind = rtpc.SystemMemory
	return cfg
}

// newHalf makes the adapter drv a half forwarding for internetwork ring
// ringIdx of rings total.
func newHalf(drv *tradapter.Driver, ringIdx, rings int) *Half {
	sim.Checkf(ringIdx >= 0 && ringIdx < rings, "half %s: ring index %d out of %d rings", drv.Station().Name(), ringIdx, rings)
	h := &Half{
		k:       drv.Kernel(),
		drv:     drv,
		ringIdx: ringIdx,
		nextHop: make([]ring.Addr, rings),
	}
	for _, class := range []tradapter.Class{tradapter.ClassCTMSP, tradapter.ClassIP, tradapter.ClassARP} {
		class := class
		h.drv.SetHandler(class, func(rcv *tradapter.Received) []rtpc.Seg {
			return h.ingress(class, rcv)
		})
	}
	return h
}

// Kernel exposes the half's machine (for CPU accounting).
func (h *Half) Kernel() *kernel.Kernel { return h.k }

// Station exposes the half's ring attachment; sources address frames
// needing forwarding to this station.
func (h *Half) Station() *ring.Station { return h.drv.Station() }

// Stats returns a snapshot of forwarding accounting.
func (h *Half) Stats() HalfStats { return h.stats }

// SetRoute declares that traffic for internetwork ring dstRing continues
// via the bridge station at `via` on this half's own ring. Injecting a
// frame for a ring with no route is a configuration error.
func (h *Half) SetRoute(dstRing int, via ring.Addr) {
	sim.Checkf(dstRing >= 0 && dstRing < len(h.nextHop), "route to ring %d out of range", dstRing)
	sim.Checkf(dstRing != h.ringIdx, "route to the half's own ring is meaningless")
	h.nextHop[dstRing] = via
}

// ingress runs at the receive interrupt: frames MAC-addressed to this
// half are in transit to another ring. The switch decision and the one
// unavoidable CPU copy happen here; the hand-off to the peer shard is the
// final mark, carrying values only.
func (h *Half) ingress(class tradapter.Class, rcv *tradapter.Received) []rtpc.Seg {
	out, ok := rcv.Frame.Payload.(*tradapter.Outgoing)
	if !ok || out.RoutedRing == 0 || h.Forward == nil {
		h.stats.Dropped++
		rcv.Release()
		return nil
	}
	dstRing := out.RoutedRing - 1
	if dstRing == h.ringIdx {
		// Misrouted: the frame claims it already reached its final ring
		// yet was MAC-addressed to the bridge.
		h.stats.Dropped++
		rcv.Release()
		return nil
	}
	hd := h.getHandoff()
	hd.fwd = Forwarded{
		DstRing: dstRing,
		Dst:     out.RoutedDst,
		Size:    rcv.Size,
		Class:   class,
		Tag:     out.Chain.Tag,
	}
	hd.fwd.CaptureLen = copy(hd.fwd.Capture[:], rcv.Frame.Capture)
	segs := append(h.prog[:0], rtpc.Do(DefaultSwitchCost))
	segs = h.k.Machine.CopySegs(segs, hd.fwd.Size, rcv.Buffer.Kind, rtpc.SystemMemory)
	segs = append(segs, rcv.ReleaseSeg(), rtpc.Mark(hd.fn))
	h.prog = segs
	return segs
}

// getHandoff pops a free hand-off record, building one (with its
// permanent forwarding mark) on the cold path only.
func (h *Half) getHandoff() *handoff {
	if hd := h.hands.Get(); hd != nil {
		return hd
	}
	hd := &handoff{}
	hd.fn = func() {
		fwd := hd.fwd
		hd.fwd = Forwarded{}
		h.hands.Put(hd)
		h.stats.Forwarded++
		h.stats.Bytes += uint64(fwd.Size)
		h.Forward(fwd)
	}
	return hd
}

// getEnv pops a free envelope, building one — permanent chain shell,
// prebuilt chain-freeing Done and recycle hook — on the cold path only.
func (h *Half) getEnv() *env {
	if e := h.envs.Get(); e != nil {
		return e
	}
	e := &env{}
	e.out.Chain = &kernel.Chain{}
	pool, ch := h.k.Pool, e.out.Chain
	e.out.Done = func(ring.DeliveryStatus) { pool.Free(ch) }
	e.recycle = func(*tradapter.Outgoing) { h.putEnv(e) }
	return e
}

// putEnv clears a dead envelope and returns it to the pool. Runs via the
// driver's recycle callback, on this half's own shard.
func (h *Half) putEnv(e *env) {
	out := &e.out
	out.Chain.Tag = nil
	out.Dst, out.RoutedDst, out.RoutedRing = 0, 0, 0
	out.Capture = nil
	h.envs.Put(e)
}

// Inject re-transmits a forwarded frame onto this half's ring: the final
// delivery hop when DstRing is this ring, or the next bridge otherwise.
// The shard engine calls it at the frame's arrival time (send time plus
// the link's store-and-forward latency), from this half's own shard. The
// whole egress — envelope, chain shell, capture bytes, mbuf nodes,
// completion hooks — comes from shard-owned free lists, so steady-state
// forwarding allocates nothing.
func (h *Half) Inject(f Forwarded) {
	e := h.getEnv()
	out := &e.out
	if !h.k.Pool.AllocInto(out.Chain, f.Size) {
		h.stats.Dropped++
		h.putEnv(e)
		return
	}
	out.Chain.Tag = f.Tag
	out.Size = f.Size
	out.Class = f.Class
	out.Capture = e.capture[:copy(e.capture[:], f.Capture[:f.CaptureLen])]
	if f.DstRing == h.ringIdx {
		out.Dst = f.Dst
	} else {
		via := h.nextHop[f.DstRing]
		if via == 0 {
			sim.Checkf(false, "half r%d: no route toward ring %d", h.ringIdx, f.DstRing)
		}
		out.Dst = via
		out.RoutedDst = f.Dst
		out.RoutedRing = f.DstRing + 1
	}
	out.SetRecycle(e.recycle)
	h.stats.Injected++
	h.drv.Output(out)
	if depth := h.drv.Stats().MaxTxQueue; depth > h.stats.QueueMax {
		h.stats.QueueMax = depth
	}
}
