// Package router implements the extension the paper's footnote 5 declines
// ("we would have the additional problem of creating a router that could
// keep up with the data rates that we were using. This is possible but
// has not been implemented"): a store-and-forward machine joining two
// Token Rings, forwarding CTMSP traffic between them.
//
// The router is an RT/PC with one Token Ring adapter per ring. A frame
// arriving on one ring whose destination lives on the other is received
// into a fixed DMA buffer, switched at network interrupt level, copied to
// the egress adapter and retransmitted. The interesting question — can it
// keep up with a 166 KB/s CTMS stream? — is answered by the tests and by
// experiment E14.
package router

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// DefaultSwitchCost is the per-frame CPU cost of the forwarding decision
// and descriptor shuffling on the router's RT/PC. It is also the floor on
// how quickly a frame can influence another ring, which is exactly the
// lookahead a conservative parallel simulation of an internetwork needs
// (DESIGN.md §9): no cross-ring effect can propagate in less than the
// switch time, so a shard may safely run that far ahead of its neighbors.
const DefaultSwitchCost = 180 * sim.Microsecond

// Port is one of the router's ring attachments.
type Port struct {
	Ring   *ring.Ring
	Driver *tradapter.Driver
}

// Stats aggregates forwarding accounting.
type Stats struct {
	Forwarded   [2]uint64 // by ingress port
	Bytes       uint64
	Dropped     uint64
	QueueMax    int
	ForwardCost sim.Time // accumulated CPU time spent switching
}

// Router joins two rings. Routes are static, as CTMSP assumes: the
// caller registers which destination addresses live behind which port.
type Router struct {
	k     *kernel.Kernel
	ports [2]Port
	// routes are per-ingress-port: each ring has its own address space,
	// so a destination is only meaningful relative to where the frame
	// came from.
	routes [2]map[ring.Addr]int
	stats  Stats
	prog   []rtpc.Seg // ingress program scratch; the driver copies it

	// SwitchCost is the per-frame CPU cost of the forwarding decision
	// and descriptor shuffling.
	SwitchCost sim.Time
}

// New builds a router machine attached to both rings.
func New(sched *sim.Scheduler, name string, r0, r1 *ring.Ring, seed int64) *Router {
	m := rtpc.NewMachine(sched, name, rtpc.DefaultCostModel(), seed)
	k := kernel.New(m)
	rt := &Router{
		k:          k,
		SwitchCost: DefaultSwitchCost,
	}
	rt.routes[0] = make(map[ring.Addr]int)
	rt.routes[1] = make(map[ring.Addr]int)
	attach := func(idx int, rg *ring.Ring) {
		st := rg.Attach(name + fmt.Sprintf("-p%d", idx))
		cfg := tradapter.DefaultConfig()
		cfg.DMABufferKind = rtpc.SystemMemory // routers copy; keep DMA fast
		drv := tradapter.New(k, st, cfg, tradapter.DefaultTiming())
		rt.ports[idx] = Port{Ring: rg, Driver: drv}
		for _, class := range []tradapter.Class{tradapter.ClassCTMSP, tradapter.ClassIP, tradapter.ClassARP} {
			class := class
			idx := idx
			drv.SetHandler(class, func(rcv *tradapter.Received) []rtpc.Seg {
				return rt.ingress(idx, class, rcv)
			})
		}
	}
	attach(0, r0)
	attach(1, r1)
	return rt
}

// Kernel exposes the router's machine (for CPU accounting in tests).
func (rt *Router) Kernel() *kernel.Kernel { return rt.k }

// Port returns one of the attachments.
func (rt *Router) Port(i int) Port { return rt.ports[i] }

// AddRoute declares that frames arriving on ingressPort for dst should
// egress via the other port's ring, where dst is an address in THAT
// ring's space.
func (rt *Router) AddRoute(ingressPort int, dst ring.Addr, egressPort int) {
	sim.Checkf(ingressPort == 0 || ingressPort == 1, "router has two ports")
	sim.Checkf(egressPort == 0 || egressPort == 1, "router has two ports")
	rt.routes[ingressPort][dst] = egressPort
}

// Stats returns a snapshot of forwarding accounting.
func (rt *Router) Stats() Stats { return rt.stats }

// ingress runs at the receive interrupt of either adapter.
func (rt *Router) ingress(port int, class tradapter.Class, rcv *tradapter.Received) []rtpc.Seg {
	out, ok := rcv.Frame.Payload.(*tradapter.Outgoing)
	if !ok {
		rt.stats.Dropped++
		rcv.Release()
		return nil
	}
	// The routed destination rides in the Outgoing the source built; in
	// a two-ring world the router's own station was the MAC destination
	// and the true target is the inner one. Model: the source sets
	// Outgoing.RoutedDst when sending via a router.
	dst := out.RoutedDst
	egress, known := rt.routes[port][dst]
	if !known || egress == port {
		rt.stats.Dropped++
		rcv.Release()
		return nil
	}

	m := rt.k.Machine
	size := rcv.Size
	segs := append(rt.prog[:0], rtpc.Do(rt.SwitchCost))
	// Copy from the ingress fixed DMA buffer to the egress driver's
	// mbufs (one CPU copy — routers on this hardware cannot avoid it).
	segs = m.CopySegs(segs, size, rcv.Buffer.Kind, rtpc.SystemMemory)
	segs = append(segs, rcv.ReleaseSeg())
	segs = append(segs, rtpc.Mark(func() {
		rt.stats.Forwarded[port]++
		rt.stats.Bytes += uint64(size)
		rt.stats.ForwardCost += rt.SwitchCost
		ch := rt.k.Pool.AllocNoWait(size)
		if ch == nil {
			rt.stats.Dropped++
			return
		}
		ch.Tag = out.Chain.Tag // the protocol payload rides along
		fwd := &tradapter.Outgoing{
			Chain:     ch,
			Size:      size,
			Class:     class,
			Dst:       dst,
			RoutedDst: dst,
			Capture:   out.Capture,
		}
		pool := rt.k.Pool
		fwd.Done = func(ring.DeliveryStatus) { pool.Free(ch) }
		rt.ports[egress].Driver.Output(fwd)
		if depth := rt.ports[egress].Driver.Stats().MaxTxQueue; depth > rt.stats.QueueMax {
			rt.stats.QueueMax = depth
		}
	}))
	rt.prog = segs
	return segs
}
