package inet

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
)

// RDT (reliable data transport) is the TCP stand-in: cumulative acks, a
// fixed sliding window, and timer-based retransmission. It supplies the
// two properties §3 says TCP buys with extra traffic — sequenced, reliable
// delivery — and exhibits the costs the paper rejects: an ack frame on the
// ring for every data frame and transport processing on both CPUs.
const (
	// RDTWindow is the send window in segments.
	RDTWindow = 8
	// RDTHeaderSize rides inside the IP payload.
	RDTHeaderSize = 16
	// rdtRTO is the (coarse, BSD-style) retransmission timeout.
	rdtRTO = 500 * sim.Millisecond
	// rdtAckSize is the total transport payload of a bare ack.
	rdtAckSize = RDTHeaderSize
)

// RDTStats aggregates transport accounting.
type RDTStats struct {
	SegsSent        uint64
	SegsRcvd        uint64
	AcksSent        uint64
	AcksRcvd        uint64
	Retransmits     uint64
	FastRetransmits uint64
	OutOfWindow     uint64
	BytesDeliver    uint64
}

type rdtSeg struct {
	seq     uint32
	bytes   int
	payload any
	sentAt  sim.Time
	acked   bool
	done    func()
}

// RDTConn is one direction-pair of the reliable transport between two
// stacks.
type RDTConn struct {
	s    *Stack
	peer ring.Addr

	// send side
	sndNext   uint32
	sndUna    uint32
	inflight  []*rdtSeg
	backlog   []*rdtSeg
	rtoArmed  bool
	rtoSerial uint64

	// fast retransmit state: duplicate cumulative acks signal a loss
	// long before the coarse timer fires.
	dupAcks     int
	lastAckSeen uint32
	fastRetxFor uint32 // highest seq already fast-retransmitted

	// receive side
	rcvNext uint32
	deliver func(payload any, n int, at sim.Time)

	stats RDTStats
}

// RDTOpen creates (or returns) the connection to peer on this stack.
func (s *Stack) RDTOpen(peer ring.Addr) *RDTConn {
	if c, ok := s.rdt[peer]; ok {
		return c
	}
	c := &RDTConn{s: s, peer: peer}
	s.rdt[peer] = c
	return c
}

// OnDeliver installs the in-order delivery callback.
func (c *RDTConn) OnDeliver(fn func(payload any, n int, at sim.Time)) { c.deliver = fn }

// Stats returns a snapshot of transport accounting.
func (c *RDTConn) Stats() RDTStats { return c.stats }

// InFlight reports unacknowledged segments.
func (c *RDTConn) InFlight() int { return len(c.inflight) }

// Backlog reports segments waiting for window space.
func (c *RDTConn) Backlog() int { return len(c.backlog) }

// Send queues application payload of n bytes. Payloads larger than the
// MTU are split into MTU-sized segments (the fragmentation the 2000-byte
// CTMS packet suffers on the stock path). done fires when the LAST
// segment of this payload is first transmitted (not acked).
func (c *RDTConn) Send(payload any, n int, done func()) {
	if n <= 0 {
		n = 1
	}
	for off := 0; off < n; off += MTU {
		l := n - off
		if l > MTU {
			l = MTU
		}
		seg := &rdtSeg{seq: c.sndNext, bytes: l, payload: payload}
		if off+l >= n {
			seg.done = done
		}
		c.sndNext++
		c.backlog = append(c.backlog, seg)
	}
	c.pump()
}

func (c *RDTConn) pump() {
	for len(c.backlog) > 0 && len(c.inflight) < RDTWindow {
		seg := c.backlog[0]
		c.backlog = c.backlog[1:]
		c.inflight = append(c.inflight, seg)
		c.transmit(seg, false)
	}
}

func (c *RDTConn) transmit(seg *rdtSeg, isRetransmit bool) {
	seg.sentAt = c.s.k.Sched().Now()
	c.stats.SegsSent++
	if isRetransmit {
		c.stats.Retransmits++
	}
	dg := &Datagram{
		Payload: seg.payload,
		Bytes:   RDTHeaderSize + seg.bytes,
		Seq:     seg.seq,
	}
	dg.IP = IPHeader{Proto: ProtoRDT, Src: c.s.addr, Dst: c.peer}
	// Transport processing cost, then the IP output path.
	c.s.k.CPU().Submit(kernel.LevelSoftNet, []rtpc.Seg{
		rtpc.Do(TransportSeg),
		rtpc.Mark(func() {
			c.s.output(dg, seg.done)
			seg.done = nil
		}),
	}, nil)
	c.armRTO()
}

func (c *RDTConn) armRTO() {
	if c.rtoArmed {
		return
	}
	c.rtoArmed = true
	c.rtoSerial++
	serial := c.rtoSerial
	c.s.k.Sched().After(rdtRTO, func() {
		if c.rtoSerial != serial {
			return
		}
		c.rtoArmed = false
		if len(c.inflight) == 0 {
			return
		}
		// Go-back-N: retransmit everything unacked.
		for _, seg := range c.inflight {
			c.transmit(seg, true)
		}
	})
}

func (c *RDTConn) cancelRTO() {
	c.rtoArmed = false
	c.rtoSerial++
}

// input handles an arriving transport datagram (data or ack).
func (c *RDTConn) input(dg *Datagram, at sim.Time) {
	if dg.Ack {
		c.handleAck(dg.AckNum)
		return
	}
	c.stats.SegsRcvd++
	switch {
	case dg.Seq == c.rcvNext:
		c.rcvNext++
		c.stats.BytesDeliver += uint64(dg.Bytes - RDTHeaderSize)
		if c.deliver != nil {
			c.deliver(dg.Payload, dg.Bytes-RDTHeaderSize, at)
		}
	case dg.Seq < c.rcvNext:
		// duplicate; re-ack below
	default:
		// Out of order (a loss ahead of us): drop, the sender will
		// retransmit. (No reassembly queue, as in early TCP.)
		c.stats.OutOfWindow++
	}
	c.sendAck()
}

func (c *RDTConn) sendAck() {
	c.stats.AcksSent++
	ack := &Datagram{Bytes: rdtAckSize, Ack: true, AckNum: c.rcvNext}
	ack.IP = IPHeader{Proto: ProtoRDT, Src: c.s.addr, Dst: c.peer}
	c.s.k.CPU().Submit(kernel.LevelSoftNet, []rtpc.Seg{
		rtpc.Do(TransportSeg / 2),
		rtpc.Mark(func() { c.s.output(ack, nil) }),
	}, nil)
}

func (c *RDTConn) handleAck(ackNum uint32) {
	c.stats.AcksRcvd++
	advanced := false
	for len(c.inflight) > 0 && c.inflight[0].seq < ackNum {
		c.inflight = c.inflight[1:]
		advanced = true
	}
	if advanced {
		c.sndUna = ackNum
		c.dupAcks = 0
		c.lastAckSeen = ackNum
		c.cancelRTO()
		if len(c.inflight) > 0 {
			c.armRTO()
		}
		c.pump()
		return
	}
	// A cumulative ack that did not advance while data is outstanding is
	// a duplicate: the receiver is missing inflight[0]. Three of them
	// trigger fast retransmit of just that segment, once.
	if len(c.inflight) == 0 || ackNum != c.lastAckSeen {
		c.lastAckSeen = ackNum
		c.dupAcks = 0
		return
	}
	c.dupAcks++
	if c.dupAcks >= 3 && c.inflight[0].seq >= c.fastRetxFor {
		c.dupAcks = 0
		c.fastRetxFor = c.inflight[0].seq + 1
		c.stats.FastRetransmits++
		// Go-back-N: the receiver keeps no reassembly queue, so every
		// outstanding segment after the hole was discarded and must be
		// resent with it.
		for _, seg := range c.inflight {
			c.transmit(seg, true)
		}
	}
}

// String summarizes connection state.
func (c *RDTConn) String() string {
	return fmt.Sprintf("rdt{peer=%d next=%d una=%d inflight=%d backlog=%d}",
		c.peer, c.sndNext, c.sndUna, len(c.inflight), len(c.backlog))
}
