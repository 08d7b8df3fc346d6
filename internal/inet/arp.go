package inet

import (
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// ARP frame sizes (total bytes, in the 60–300 byte class the paper's
// traffic analysis describes).
const (
	arpRequestSize = 60
	arpReplySize   = 60
	// arpCacheTTL forces periodic re-resolution, producing the
	// background ARP chatter the paper sees on the public ring.
	arpCacheTTL = 5 * sim.Minute
)

// ARPStats aggregates ARP accounting.
type ARPStats struct {
	Hits, Misses     uint64
	Requests         uint64
	Replies          uint64
	Timeouts         uint64
	GratuitousHeard  uint64
	PendingHighWater int
}

// arpOp distinguishes requests from replies in the fake payload.
type arpPayload struct {
	op     int // 1 = request, 2 = reply
	target ring.Addr
	sender ring.Addr
}

type arpEntry struct {
	hw      ring.Addr
	expires sim.Time
}

// ARP resolves protocol addresses to ring addresses. In this model the
// two spaces are identical, but the traffic and the cache behaviour —
// misses queue the packet and put a broadcast on the ring — are real.
type ARP struct {
	s       *Stack
	cache   map[ring.Addr]arpEntry
	pending map[ring.Addr][]func(ring.Addr, bool)
	stats   ARPStats
}

func newARP(s *Stack) *ARP {
	return &ARP{
		s:       s,
		cache:   make(map[ring.Addr]arpEntry),
		pending: make(map[ring.Addr][]func(ring.Addr, bool)),
	}
}

// resolve invokes fn with the hardware address for dst, consulting the
// cache and emitting a request on a miss.
func (a *ARP) resolve(dst ring.Addr, fn func(ring.Addr, bool)) {
	now := a.s.k.Sched().Now()
	if e, ok := a.cache[dst]; ok && now < e.expires {
		a.stats.Hits++
		fn(e.hw, true)
		return
	}
	a.stats.Misses++
	a.pending[dst] = append(a.pending[dst], fn)
	if n := len(a.pending[dst]); n > a.stats.PendingHighWater {
		a.stats.PendingHighWater = n
	}
	if len(a.pending[dst]) > 1 {
		return // a request is already outstanding
	}
	a.sendRequest(dst)
	// Give up after one second, dropping queued packets.
	a.s.k.Sched().After(sim.Second, func() {
		waiters := a.pending[dst]
		if len(waiters) == 0 {
			return
		}
		if _, ok := a.cache[dst]; ok {
			return
		}
		delete(a.pending, dst)
		a.stats.Timeouts++
		for _, w := range waiters {
			w(0, false)
		}
	})
}

func (a *ARP) sendRequest(dst ring.Addr) {
	a.stats.Requests++
	ch := a.s.k.Pool.AllocNoWait(arpRequestSize)
	if ch == nil {
		return
	}
	ch.Tag = &arpPayload{op: 1, target: dst, sender: a.s.addr}
	a.s.drv.Output(&tradapter.Outgoing{
		Chain: ch,
		Size:  arpRequestSize,
		Class: tradapter.ClassARP,
		Dst:   ring.Broadcast,
		Done: func(ring.DeliveryStatus) {
			a.s.k.Pool.Free(ch)
		},
	})
}

// input is the driver split-point handler for ARP frames. It reads the
// payload here: the action below runs after Release, and by then the
// driver may have recycled the frame.
func (a *ARP) input(rcv *tradapter.Received) []rtpc.Seg {
	var p *arpPayload
	if out, ok := rcv.Frame.Payload.(*tradapter.Outgoing); ok {
		p, _ = out.Chain.Tag.(*arpPayload)
	}
	return []rtpc.Seg{
		a.s.k.Machine.CopySeg(rcv.Size, rcv.Buffer.Kind, rtpc.SystemMemory),
		rcv.ReleaseSeg(),
		rtpc.Then(IPInput, func() {
			if p != nil {
				a.handle(p)
			}
		}),
	}
}

func (a *ARP) handle(p *arpPayload) {
	now := a.s.k.Sched().Now()
	// Every ARP packet teaches us the sender's mapping.
	a.cache[p.sender] = arpEntry{hw: p.sender, expires: now + arpCacheTTL}

	switch p.op {
	case 1:
		if p.target != a.s.addr {
			a.stats.GratuitousHeard++
			return
		}
		// Reply directly to the requester.
		a.stats.Replies++
		ch := a.s.k.Pool.AllocNoWait(arpReplySize)
		if ch == nil {
			return
		}
		ch.Tag = &arpPayload{op: 2, target: p.sender, sender: a.s.addr}
		a.s.drv.Output(&tradapter.Outgoing{
			Chain: ch,
			Size:  arpReplySize,
			Class: tradapter.ClassARP,
			Dst:   p.sender,
			Done: func(ring.DeliveryStatus) {
				a.s.k.Pool.Free(ch)
			},
		})
	case 2:
		if p.target != a.s.addr {
			return
		}
		// Resolution complete: drain waiters.
		waiters := a.pending[p.sender]
		delete(a.pending, p.sender)
		for _, w := range waiters {
			w(p.sender, true)
		}
	}
}
