package inet

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// IPHeaderSize is the size of our IPv4-style header.
const IPHeaderSize = 20

// MTU is the maximum transport payload per frame. The paper's file
// transfer packets are 1522 bytes total on the ring; with ring overhead
// (21) and IP header (20) that leaves ~1480 of transport payload.
const MTU = 1480

// Proto identifies the payload protocol in the IP header.
type Proto uint8

const (
	// ProtoRDT is the reliable transport.
	ProtoRDT Proto = 6
	// ProtoDGram is the unreliable datagram service.
	ProtoDGram Proto = 17
)

// IPHeader is the network-layer header.
type IPHeader struct {
	Proto    Proto
	Src, Dst ring.Addr
	Length   uint16
	ID       uint16
}

// Encode serializes the header with a valid checksum.
func (h IPHeader) Encode() []byte {
	b := make([]byte, IPHeaderSize)
	b[0] = 0x45
	binary.BigEndian.PutUint16(b[2:], h.Length)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	b[8] = 64
	b[9] = byte(h.Proto)
	binary.BigEndian.PutUint16(b[12:], uint16(h.Src))
	binary.BigEndian.PutUint16(b[16:], uint16(h.Dst))
	cs := Checksum(b)
	binary.BigEndian.PutUint16(b[10:], cs)
	return b
}

// DecodeIPHeader parses and validates an encoded header.
func DecodeIPHeader(b []byte) (IPHeader, error) {
	if len(b) < IPHeaderSize {
		return IPHeader{}, fmt.Errorf("inet: short IP header: %d", len(b))
	}
	if !VerifyChecksum(b[:IPHeaderSize]) {
		return IPHeader{}, fmt.Errorf("inet: IP header checksum mismatch")
	}
	return IPHeader{
		Proto:  Proto(b[9]),
		Src:    ring.Addr(binary.BigEndian.Uint16(b[12:])),
		Dst:    ring.Addr(binary.BigEndian.Uint16(b[16:])),
		Length: binary.BigEndian.Uint16(b[2:]),
		ID:     binary.BigEndian.Uint16(b[4:]),
	}, nil
}

// Costs are the per-packet CPU costs of the stack.
type Costs struct {
	// IPOutput covers route lookup, header build and checksum.
	IPOutput sim.Time
	// IPInput covers validation and demux.
	IPInput sim.Time
	// TransportSeg covers transport-layer processing per segment.
	TransportSeg sim.Time
	// ARPLookup is a cache hit; a miss additionally queues the packet
	// and emits a request frame.
	ARPLookup sim.Time
}

// DefaultCosts returns 1990-class software costs.
func DefaultCosts() Costs {
	return Costs{
		IPOutput:     180 * sim.Microsecond,
		IPInput:      140 * sim.Microsecond,
		TransportSeg: 260 * sim.Microsecond,
		ARPLookup:    15 * sim.Microsecond,
	}
}

// Datagram is one transport message travelling through the stack.
type Datagram struct {
	IP      IPHeader
	Payload any
	Bytes   int // transport payload size
	Seq     uint32
	Ack     bool
	AckNum  uint32
}

// Stack is one machine's IP instance bound to its Token Ring driver.
type Stack struct {
	k     *kernel.Kernel
	drv   *tradapter.Driver
	addr  ring.Addr
	costs Costs
	arp   *ARP
	ipID  uint16

	// listeners by protocol
	rdt   map[ring.Addr]*RDTConn
	dgRcv func(*Datagram, sim.Time)

	stats StackStats
}

// StackStats aggregates IP-level accounting.
type StackStats struct {
	IPOut, IPIn     uint64
	BytesOut        uint64
	Dropped         uint64
	ChecksumErrors  uint64
	FramesFragments uint64
}

// NewStack builds the IP instance and installs its receive handlers on
// the driver's split point.
func NewStack(k *kernel.Kernel, drv *tradapter.Driver, costs Costs) *Stack {
	s := &Stack{
		k:     k,
		drv:   drv,
		addr:  drv.Station().Addr(),
		costs: costs,
		rdt:   make(map[ring.Addr]*RDTConn),
	}
	s.arp = newARP(s)
	drv.SetHandler(tradapter.ClassIP, s.ipInput)
	drv.SetHandler(tradapter.ClassARP, s.arp.input)
	return s
}

// Addr reports the stack's ring address.
func (s *Stack) Addr() ring.Addr { return s.addr }

// Stats returns a snapshot of IP accounting.
func (s *Stack) Stats() StackStats { return s.stats }

// ARPStats exposes the ARP cache accounting.
func (s *Stack) ARPStats() ARPStats { return s.arp.stats }

// OnDatagram installs the unreliable-datagram receive callback.
func (s *Stack) OnDatagram(fn func(*Datagram, sim.Time)) { s.dgRcv = fn }

// SendDatagram transmits one unreliable datagram (keep-alive class
// traffic). done may be nil.
func (s *Stack) SendDatagram(dst ring.Addr, payloadBytes int, payload any, done func()) {
	dg := &Datagram{Payload: payload, Bytes: payloadBytes}
	dg.IP = IPHeader{Proto: ProtoDGram, Src: s.addr, Dst: dst}
	s.output(dg, done)
}

// output runs the IP output path: per-packet header computation and
// checksum (the cost TCP/IP pays that CTMSP avoids), ARP resolution, then
// the driver queue at ordinary priority.
func (s *Stack) output(dg *Datagram, done func()) {
	s.ipID++
	dg.IP.ID = s.ipID
	dg.IP.Length = uint16(IPHeaderSize + dg.Bytes)
	total := IPHeaderSize + dg.Bytes

	segs := []rtpc.Seg{
		rtpc.Do(s.costs.IPOutput),
		rtpc.Do(s.costs.ARPLookup),
		rtpc.Mark(func() {
			ch := s.k.Pool.AllocNoWait(total)
			if ch == nil {
				s.stats.Dropped++
				if done != nil {
					done()
				}
				return
			}
			ch.Tag = dg
			s.stats.IPOut++
			s.stats.BytesOut += uint64(total)
			s.arp.resolve(dg.IP.Dst, func(hwDst ring.Addr, ok bool) {
				if !ok {
					s.stats.Dropped++
					s.k.Pool.Free(ch)
					if done != nil {
						done()
					}
					return
				}
				s.drv.Output(&tradapter.Outgoing{
					Chain:   ch,
					Size:    total,
					Class:   tradapter.ClassIP,
					Dst:     hwDst,
					Capture: dg.IP.Encode(),
					Done: func(st ring.DeliveryStatus) {
						s.k.Pool.Free(ch)
						if done != nil {
							done()
						}
					},
				})
			})
		}),
	}
	s.k.CPU().Submit(kernel.LevelSoftNet, segs, nil)
}

// ipInput is the driver split-point handler for IP frames.
func (s *Stack) ipInput(rcv *tradapter.Received) []rtpc.Seg {
	// The stock path copies the packet out of the fixed DMA buffer into
	// mbufs before protocol processing (§2's third copy); the copy loop
	// is interruptible.
	segs := s.k.Machine.CopySegs(rcv.Size, rcv.Buffer.Kind, rtpc.SystemMemory)
	return append(segs,
		rtpc.Mark(rcv.Release),
		rtpc.Then(s.costs.IPInput, func() {
			out, ok := rcv.Frame.Payload.(*tradapter.Outgoing)
			if !ok {
				s.stats.Dropped++
				return
			}
			dg, ok := out.Chain.Tag.(*Datagram)
			if !ok {
				s.stats.Dropped++
				return
			}
			s.stats.IPIn++
			s.demux(dg)
		}),
	)
}

func (s *Stack) demux(dg *Datagram) {
	at := s.k.Sched().Now()
	switch dg.IP.Proto {
	case ProtoDGram:
		if s.dgRcv != nil {
			s.dgRcv(dg, at)
		}
	case ProtoRDT:
		if c := s.rdt[dg.IP.Src]; c != nil {
			c.input(dg, at)
		} else {
			s.stats.Dropped++
		}
	default:
		s.stats.Dropped++
	}
}
