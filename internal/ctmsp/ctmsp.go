// Package ctmsp implements the CTMS Protocol the paper proposes: a
// network-layer protocol added beside ARP and IP, specifically designed
// for and limited to assisting data transfers between the network and
// other devices. It assumes a static point-to-point connection between two
// machines, so the Token Ring header is computed once per connection and
// the per-packet work reduces to stamping a device number and a packet
// number. The paper's one-time set-up ioctls are direct calls on the Token
// Ring driver in the model, at no simulated cost.
//
// The receiver side implements the loss model §5 settles on: Ring Purge
// may silently destroy at most one packet per purge, the transmitter
// cannot detect it, so the receiver recovers by accounting for gaps and
// suppressing duplicates (which only occur if a hypothetical
// purge-interrupt adapter retransmits unnecessarily).
package ctmsp

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// Protocol constants.
const (
	// Magic identifies a CTMSP packet; checking it is the "shortest
	// possible test" the paper instruments at measurement point 4.
	Magic = 0xC75D
	// HeaderSize is the CTMSP header: magic(2) version(1) device(1)
	// packetnum(4) length(4).
	HeaderSize = 12
	// Version of the prototype protocol.
	Version = 1
)

// Header is the CTMSP packet header.
type Header struct {
	DstDevice uint8
	PacketNum uint32
	Length    uint32
}

// Encode serializes the header into b.
func (h Header) Encode(b *[HeaderSize]byte) {
	binary.BigEndian.PutUint16(b[0:], Magic)
	b[2] = Version
	b[3] = h.DstDevice
	binary.BigEndian.PutUint32(b[4:], h.PacketNum)
	binary.BigEndian.PutUint32(b[8:], h.Length)
}

// DecodeHeader parses a CTMSP header.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("ctmsp: short header: %d bytes", len(b))
	}
	if binary.BigEndian.Uint16(b[0:]) != Magic {
		return Header{}, fmt.Errorf("ctmsp: bad magic %#x", binary.BigEndian.Uint16(b[0:]))
	}
	if b[2] != Version {
		return Header{}, fmt.Errorf("ctmsp: unknown version %d", b[2])
	}
	return Header{
		DstDevice: b[3],
		PacketNum: binary.BigEndian.Uint32(b[4:]),
		Length:    binary.BigEndian.Uint32(b[8:]),
	}, nil
}

// TxStats aggregates connection-level transmit accounting.
type TxStats struct {
	PacketsBuilt uint64
	MbufFailures uint64
}

// Conn is one static point-to-point CTMSP connection. The ring header is
// computed once by the Token Ring driver and kept as connection state.
type Conn struct {
	k          *kernel.Kernel
	dst        ring.Addr
	dstDevice  uint8
	ringHeader []byte
	next       uint32
	stats      TxStats
}

// Dial establishes a connection from drv's machine to dst: the paper's
// set-up step that has the Token Ring driver precompute the header.
func Dial(drv *tradapter.Driver, dst ring.Addr, dstDevice uint8) *Conn {
	return &Conn{
		k:          drv.Kernel(),
		dst:        dst,
		dstDevice:  dstDevice,
		ringHeader: drv.ComputeHeader(dst),
	}
}

// RingHeader exposes the precomputed header (tests verify it is built
// exactly once per connection).
func (c *Conn) RingHeader() []byte { return c.ringHeader }

// Stats returns a snapshot of transmit accounting.
func (c *Conn) Stats() TxStats { return c.stats }

// NextHeader stamps the next packet header without building buffers.
func (c *Conn) NextHeader(dataLen int) Header {
	h := Header{DstDevice: c.dstDevice, PacketNum: c.next, Length: uint32(HeaderSize + dataLen)}
	c.next++
	return h
}

// BuildPacket fills the caller-owned envelope out with the next packet,
// of total length HeaderSize+dataLen: mbufs for out.Chain, which must be
// an empty shell, and the CTMSP header encoded into capture, which
// becomes out.Capture. It returns the header, or false, leaving out
// untouched, if the mbuf pool is exhausted (interrupt-time contract).
// out's PreTransmit and Done hooks are the caller's.
//
// copyHeaderOnly selects §5.3's "copy only header into fixed DMA buffer"
// variant: the CPU copies the CTMSP and precomputed ring headers only.
func (c *Conn) BuildPacket(out *tradapter.Outgoing, capture *[HeaderSize]byte, dataLen int, copyHeaderOnly bool) (Header, bool) {
	total := HeaderSize + dataLen
	if !c.k.Pool.AllocInto(out.Chain, total) {
		c.stats.MbufFailures++
		return Header{}, false
	}
	h := c.NextHeader(dataLen)
	h.Encode(capture)
	c.stats.PacketsBuilt++

	copyBytes := total
	if copyHeaderOnly {
		copyBytes = HeaderSize + len(c.ringHeader)
	}
	out.Size = total
	out.Class = tradapter.ClassCTMSP
	out.Dst = c.dst
	out.CopyBytes = copyBytes
	out.Capture = capture[:]
	return h, true
}

// Event classifies what the receiver saw for one arriving packet.
//
//ctmsvet:enum
type Event int

const (
	// InOrder: the expected packet arrived.
	InOrder Event = iota
	// Duplicate: an already-delivered packet number arrived again and
	// was suppressed.
	Duplicate
	// Gap: one or more packets were lost before this one (Ring Purge).
	Gap
	// Reordered: a packet older than expected but never delivered — the
	// failure mode careful critical-section protection eliminated (§5);
	// its appearance means a driver bug.
	Reordered
)

func (e Event) String() string {
	switch e {
	case InOrder:
		return "in-order"
	case Duplicate:
		return "duplicate"
	case Gap:
		return "gap"
	case Reordered:
		return "reordered"
	}
	return fmt.Sprintf("Event(%d)", int(e))
}

// RxStats aggregates receiver accounting.
type RxStats struct {
	Received   uint64
	InOrder    uint64
	Duplicates uint64
	Gaps       uint64
	Lost       uint64
	Reordered  uint64
}

// Receiver tracks CTMSP sequence state for one connection and implements
// the loss-recovery accounting.
type Receiver struct {
	expect  uint32
	started bool
	stats   RxStats
	// OnData, if set, fires for every accepted (non-duplicate) packet.
	OnData func(Header, sim.Time)
}

// Stats returns a snapshot of receive accounting.
func (r *Receiver) Stats() RxStats { return r.stats }

// Accept processes one arriving packet header and reports what happened.
func (r *Receiver) Accept(h Header, at sim.Time) Event {
	r.stats.Received++
	if !r.started {
		r.started = true
		r.expect = h.PacketNum
	}
	switch {
	case h.PacketNum == r.expect:
		r.expect = h.PacketNum + 1
		r.stats.InOrder++
		r.deliver(h, at)
		return InOrder
	case h.PacketNum > r.expect:
		lost := uint64(h.PacketNum - r.expect)
		r.stats.Lost += lost
		r.stats.Gaps++
		r.expect = h.PacketNum + 1
		r.deliver(h, at)
		return Gap
	case h.PacketNum+1 == r.expect:
		// The last delivered packet again: a duplicate from an
		// over-eager purge retransmit.
		r.stats.Duplicates++
		return Duplicate
	}
	// Older than the last delivered packet: genuine reordering, which the
	// prototype's critical-section fixes are supposed to make impossible.
	r.stats.Reordered++
	return Reordered
}

func (r *Receiver) deliver(h Header, at sim.Time) {
	if r.OnData != nil {
		r.OnData(h, at)
	}
}
