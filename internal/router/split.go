package router

import (
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// Half is one port of a split router: the same RT/PC forwarding engine as
// Router, but owning a single ring attachment so the two ends of a bridge
// can live on different sim.Schedulers. A sharded topology (internal/topo)
// gives each ring its own shard; the bridge between two rings is then a
// pair of Halves whose only coupling is the Forward callback — frames
// leave one shard as plain values and re-enter the other via Inject after
// the link's store-and-forward latency, which is what makes the
// conservative lookahead window real rather than assumed.
//
// A Half's ingress does the same work Router.ingress does: the switch
// decision, one CPU copy out of the fixed DMA buffer, then hand-off. The
// egress side (Inject) allocates an mbuf chain on the destination shard's
// kernel and queues the frame on its adapter, re-addressed to either the
// final station or the next bridge along the path.
type Half struct {
	k       *kernel.Kernel
	rg      *ring.Ring
	drv     *tradapter.Driver
	ringIdx int
	// nextHop[r] is the station address on THIS ring of the bridge half
	// that continues toward internetwork ring r; 0 means no route.
	nextHop []ring.Addr
	stats   HalfStats
	envs    envPool
	// recycleEnv is the pool-return hook armed on every injected envelope,
	// built once so the per-frame SetRecycle call boxes no method value.
	recycleEnv func(*tradapter.Outgoing)

	// SwitchCost is the per-frame CPU cost of the forwarding decision.
	SwitchCost sim.Time
	// Forward receives each frame this half decided to forward, after the
	// switch and copy segments complete. The shard engine wires it to the
	// cross-shard link; it must not touch this shard's state afterwards.
	Forward func(Forwarded)
}

// envPool is the free list of injected-frame envelopes. Each envelope is
// an Outgoing with a permanently attached chain shell and a prebuilt Done
// that frees the chain's mbufs at transmit complete; the envelope itself
// returns here only after the driver's two-phase recycle (transmit done
// AND receive handler returned), so a reused envelope can never be read
// by a frame still in flight. Every transition happens on the owning
// ring's scheduler — the pool never crosses a shard.
//
//ctmsvet:shardowned
type envPool struct {
	free []*tradapter.Outgoing
}

// Forwarded is a frame in flight between two halves of a split bridge:
// plain values only, so it can cross a shard boundary without sharing
// memory with the shard that produced it.
type Forwarded struct {
	// DstRing is the 0-based internetwork index of the final ring.
	DstRing int
	// Dst is the final station address in DstRing's address space.
	Dst     ring.Addr
	Size    int
	Class   tradapter.Class
	Tag     any
	Capture []byte
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
func NewHalf(sched *sim.Scheduler, name string, rg *ring.Ring, ringIdx, rings int, seed int64) *Half {
	sim.Checkf(ringIdx >= 0 && ringIdx < rings, "half %s: ring index %d out of %d rings", name, ringIdx, rings)
	m := rtpc.NewMachine(sched, name, rtpc.DefaultCostModel(), seed)
	k := kernel.New(m)
	h := &Half{
		k:          k,
		rg:         rg,
		ringIdx:    ringIdx,
		nextHop:    make([]ring.Addr, rings),
		SwitchCost: DefaultSwitchCost,
	}
	h.recycleEnv = h.putEnv
	st := rg.Attach(name)
	cfg := tradapter.DefaultConfig()
	cfg.DMABufferKind = rtpc.SystemMemory // routers copy; keep DMA fast
	h.drv = tradapter.New(k, st, cfg, tradapter.DefaultTiming())
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
	fwd := Forwarded{
		DstRing: dstRing,
		Dst:     out.RoutedDst,
		Size:    rcv.Size,
		Class:   class,
		Tag:     out.Chain.Tag,
		Capture: out.Capture,
	}
	m := h.k.Machine
	segs := []rtpc.Seg{rtpc.Do(h.SwitchCost)}
	segs = append(segs, m.CopySegs(fwd.Size, rcv.Buffer.Kind, rtpc.SystemMemory)...)
	segs = append(segs, rtpc.Mark(rcv.Release))
	segs = append(segs, rtpc.Mark(func() {
		h.stats.Forwarded++
		h.stats.Bytes += uint64(fwd.Size)
		h.Forward(fwd)
	}))
	return segs
}

// getEnv pops a free envelope, building one — permanent chain shell,
// prebuilt chain-freeing Done — on the cold path only.
//
//ctmsvet:hotpath
func (h *Half) getEnv() *tradapter.Outgoing {
	if n := len(h.envs.free); n > 0 {
		out := h.envs.free[n-1]
		h.envs.free[n-1] = nil
		h.envs.free = h.envs.free[:n-1]
		return out
	}
	out := &tradapter.Outgoing{Chain: &kernel.Chain{}} //ctmsvet:allow hotpath cold refill path, runs only until the envelope pool reaches steady state
	pool, ch := h.k.Pool, out.Chain
	out.Done = func(ring.DeliveryStatus) { pool.Free(ch) } //ctmsvet:allow hotpath the Done closure is built once per pooled envelope, not per frame
	return out
}

// putEnv clears a dead envelope and returns it to the pool. Runs via the
// driver's recycle callback, on this half's own shard.
//
//ctmsvet:hotpath
func (h *Half) putEnv(out *tradapter.Outgoing) {
	out.Chain.Tag = nil
	out.Dst, out.RoutedDst, out.RoutedRing = 0, 0, 0
	out.Capture = nil
	h.envs.free = append(h.envs.free, out) //ctmsvet:allow hotpath envelope pool grows to the in-flight high-water mark once, then reuses the array
}

// Inject re-transmits a forwarded frame onto this half's ring: the final
// delivery hop when DstRing is this ring, or the next bridge otherwise.
// The shard engine calls it at the frame's arrival time (send time plus
// the link's store-and-forward latency), from this half's own shard. The
// whole egress — envelope, chain shell, mbuf nodes, completion hooks —
// comes from shard-owned free lists, so steady-state forwarding allocates
// nothing.
//
//ctmsvet:hotpath
func (h *Half) Inject(f Forwarded) {
	out := h.getEnv()
	if !h.k.Pool.AllocInto(out.Chain, f.Size) {
		h.stats.Dropped++
		h.putEnv(out)
		return
	}
	out.Chain.Tag = f.Tag
	out.Size = f.Size
	out.Class = f.Class
	out.Capture = f.Capture
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
	out.SetRecycle(h.recycleEnv)
	h.stats.Injected++
	h.drv.Output(out)
	if depth := h.drv.Stats().MaxTxQueue; depth > h.stats.QueueMax {
		h.stats.QueueMax = depth
	}
}
