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
//
// One forwarding engine serves every topology: a Half is one adapter and
// its share of the switching work. NewPair joins two Halves on one
// machine (E14's router); internal/topo gives each Half its own machine
// and shard and joins them through a latency-bearing link.
package router

import (
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

// NewPair builds the two-ring router itself: one RT/PC with an adapter on
// each ring, modeled as two Halves sharing the machine. Each half's
// Forward is the other half's Inject, so a frame crosses the backplane in
// the same event its ingress program ends: the egress mbufs come from the
// shared kernel and the frame is queued on the other adapter at once.
// Sources on ring 0 reach ring 1 by MAC-addressing the first half's
// station and setting the Outgoing's routed fields (RoutedRing 2), and
// vice versa. The machine runs on r0's scheduler, which r1 must share.
func NewPair(name string, r0, r1 *ring.Ring, seed int64) [2]*Half {
	sim.Checkf(r1.Scheduler() == r0.Scheduler(), "router %s: its two rings run on different schedulers", name)
	k := kernel.New(rtpc.NewMachine(r0.Scheduler(), name, seed))
	a := newHalf(tradapter.New(k, r0.Attach(name+"-p0"), halfConfig()), 0, 2)
	b := newHalf(tradapter.New(k, r1.Attach(name+"-p1"), halfConfig()), 1, 2)
	a.Forward, b.Forward = b.Inject, a.Inject
	return [2]*Half{a, b}
}
