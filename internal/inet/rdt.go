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

// rdtSeg is one transport segment from Send until it is acknowledged.
// Segments are pooled per connection: one returns to the pool when the
// cumulative ack that covers it removes it from the window, and no
// transmission in progress reads it after that (transmit copies what IP
// needs into its send record).
type rdtSeg struct {
	seq   uint32
	bytes int
	tag   uint32
	done  func()
}

// rdtTimer is one armed retransmission timeout. Acks re-arm the timer
// without cancelling the previous event: a stale timer finds its serial
// overtaken and does nothing. Each timer record returns to the pool when
// its event fires, stale or not.
type rdtTimer struct {
	serial uint64
	fire   func()
}

// RDTConn is one direction-pair of the reliable transport between two
// stacks.
type RDTConn struct {
	s    *Stack
	peer ring.Addr

	// send side: inflight holds at most RDTWindow segments, oldest first,
	// and acked segments leave it by copying the rest down, so its array
	// is allocated once.
	sndNext   uint32
	sndUna    uint32
	inflight  []*rdtSeg
	backlog   sim.FIFO[*rdtSeg]
	rtoArmed  bool
	rtoSerial uint64
	segs      sim.FreeList[rdtSeg]
	timers    sim.FreeList[rdtTimer]

	// fast retransmit state: duplicate cumulative acks signal a loss
	// long before the coarse timer fires.
	dupAcks     int
	lastAckSeen uint32
	fastRetxFor uint32 // highest seq already fast-retransmitted

	// receive side
	rcvNext uint32
	deliver func(tag uint32, n int, at sim.Time)

	stats RDTStats
}

// RDTOpen creates (or returns) the connection to peer on this stack.
func (s *Stack) RDTOpen(peer ring.Addr) *RDTConn {
	if c, ok := s.rdt[peer]; ok {
		return c
	}
	c := &RDTConn{s: s, peer: peer, inflight: make([]*rdtSeg, 0, RDTWindow)}
	s.rdt[peer] = c
	return c
}

// OnDeliver installs the in-order delivery callback: it receives each
// segment's tag and payload bytes.
func (c *RDTConn) OnDeliver(fn func(tag uint32, n int, at sim.Time)) { c.deliver = fn }

// Stats returns a snapshot of transport accounting.
func (c *RDTConn) Stats() RDTStats { return c.stats }

// InFlight reports unacknowledged segments.
func (c *RDTConn) InFlight() int { return len(c.inflight) }

// Backlog reports segments waiting for window space.
func (c *RDTConn) Backlog() int { return c.backlog.Len() }

// Send queues an application message of n bytes, tagged with tag.
// Messages larger than the MTU are split into MTU-sized segments (the
// fragmentation the 2000-byte CTMS packet suffers on the stock path),
// each carrying the tag. done fires when the LAST segment of this message
// is first transmitted (not acked).
func (c *RDTConn) Send(tag uint32, n int, done func()) {
	if n <= 0 {
		n = 1
	}
	for off := 0; off < n; off += MTU {
		l := min(n-off, MTU)
		seg := c.segs.Get()
		if seg == nil {
			seg = &rdtSeg{}
		}
		*seg = rdtSeg{seq: c.sndNext, bytes: l, tag: tag}
		if off+l >= n {
			seg.done = done
		}
		c.sndNext++
		c.backlog.Push(seg)
	}
	c.pump()
}

func (c *RDTConn) pump() {
	for c.backlog.Len() > 0 && len(c.inflight) < RDTWindow {
		seg := c.backlog.Pop()
		c.inflight = append(c.inflight, seg) // RDTOpen allocates the window array at RDTWindow; it never grows
		c.transmit(seg, false)
	}
}

// transmit runs the transport's per-segment processing, then hands the
// segment to IP. The segment's completion moves to the send record here,
// so the first transmission fires it and retransmissions do not.
func (c *RDTConn) transmit(seg *rdtSeg, isRetransmit bool) {
	c.stats.SegsSent++
	if isRetransmit {
		c.stats.Retransmits++
	}
	sd := c.s.getSend()
	sd.dg = Datagram{
		IP:    IPHeader{Proto: ProtoRDT, Src: c.s.addr, Dst: c.peer},
		Tag:   seg.tag,
		Bytes: RDTHeaderSize + seg.bytes,
		Seq:   seg.seq,
	}
	sd.done, seg.done = seg.done, nil
	c.submit(TransportSeg, sd)
	c.armRTO()
}

// submit queues transport processing of cost, ending in IP output of sd.
func (c *RDTConn) submit(cost sim.Time, sd *ipSend) {
	s := c.s
	s.prog = append(s.prog[:0], rtpc.Do(cost), rtpc.Mark(sd.output))
	s.k.CPU().Submit(kernel.LevelSoftNet, s.prog, nil)
}

func (c *RDTConn) armRTO() {
	if c.rtoArmed {
		return
	}
	c.rtoArmed = true
	c.rtoSerial++
	tm := c.timers.Get()
	if tm == nil {
		tm = &rdtTimer{}
		tm.fire = func() {
			serial := tm.serial
			c.timers.Put(tm)
			c.expire(serial)
		}
	}
	tm.serial = c.rtoSerial
	c.s.k.Sched().After(rdtRTO, tm.fire)
}

// expire is the retransmission timeout armed with serial.
func (c *RDTConn) expire(serial uint64) {
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
			c.deliver(dg.Tag, dg.Bytes-RDTHeaderSize, at)
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
	sd := c.s.getSend()
	sd.dg = Datagram{
		IP:     IPHeader{Proto: ProtoRDT, Src: c.s.addr, Dst: c.peer},
		Bytes:  rdtAckSize,
		Ack:    true,
		AckNum: c.rcvNext,
	}
	c.submit(TransportSeg/2, sd)
}

func (c *RDTConn) handleAck(ackNum uint32) {
	c.stats.AcksRcvd++
	acked := 0
	for acked < len(c.inflight) && c.inflight[acked].seq < ackNum {
		acked++
	}
	if acked > 0 {
		for _, seg := range c.inflight[:acked] {
			*seg = rdtSeg{}
			c.segs.Put(seg)
		}
		n := copy(c.inflight, c.inflight[acked:])
		clear(c.inflight[n:])
		c.inflight = c.inflight[:n]
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
		c.peer, c.sndNext, c.sndUna, len(c.inflight), c.backlog.Len())
}
