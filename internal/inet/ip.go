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

// Encode writes the header, with a valid checksum, into b (the caller's
// buffer: a sender's capture lives in its pooled send record).
func (h IPHeader) Encode(b *[IPHeaderSize]byte) {
	*b = [IPHeaderSize]byte{}
	b[0] = 0x45
	binary.BigEndian.PutUint16(b[2:], h.Length)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	b[8] = 64
	b[9] = byte(h.Proto)
	binary.BigEndian.PutUint16(b[12:], uint16(h.Src))
	binary.BigEndian.PutUint16(b[16:], uint16(h.Dst))
	cs := Checksum(b[:])
	binary.BigEndian.PutUint16(b[10:], cs)
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

// The per-packet CPU costs of the stack: 1990-class software figures.
const (
	// IPOutput covers route lookup, header build and checksum.
	IPOutput = 180 * sim.Microsecond
	// IPInput covers validation and demux.
	IPInput = 140 * sim.Microsecond
	// TransportSeg covers transport-layer processing per segment.
	TransportSeg = 260 * sim.Microsecond
	// ARPLookup is a cache hit; a miss additionally queues the packet
	// and emits a request frame.
	ARPLookup = 15 * sim.Microsecond
)

// Datagram is one transport message travelling through the stack.
type Datagram struct {
	IP IPHeader
	// Tag is the sender's message tag, carried unchanged to the receiver
	// (the stock relay numbers its packets with it).
	Tag    uint32
	Bytes  int // transport payload size
	Seq    uint32
	Ack    bool
	AckNum uint32
}

// Stack is one machine's IP instance bound to its Token Ring driver.
type Stack struct {
	k    *kernel.Kernel
	drv  *tradapter.Driver
	addr ring.Addr
	arp  *ARP
	ipID uint16

	// listeners by protocol
	rdt   map[ring.Addr]*RDTConn
	dgRcv func(*Datagram, sim.Time)

	// Every datagram in flight is a pooled record whose actions are built
	// once, and every program is assembled in one scratch slice (Submit
	// and Splice copy it).
	sends sim.FreeList[ipSend]
	rcvs  sim.FreeList[ipRecv]
	prog  []rtpc.Seg
	stats StackStats
}

// ipSend is one outgoing datagram from the moment its transport (or the
// datagram service) hands it to IP until its envelope is dead: the
// Datagram itself, the envelope with a permanent chain shell whose Tag
// points at that Datagram, the header's capture bytes and the caller's
// completion. The record returns to the stack's pool at one of two
// points: at once when the datagram never reaches the driver (mbuf
// exhaustion or an ARP failure), or through the envelope's two-phase
// recycle, after both the transmit-complete interrupt and the receiving
// stack's IP input handler have run.
type ipSend struct {
	dg      Datagram
	out     tradapter.Outgoing
	capture [IPHeaderSize]byte
	done    func() // the caller's completion, fired once; may be nil
	// prebuilt actions
	output   func()                // enter IP output (the transport's last action)
	alloc    func()                // IP output's action: mbufs, then ARP
	resolved func(ring.Addr, bool) // the ARP answer
	recycle  func(*tradapter.Outgoing)
}

// ipRecv carries one arriving datagram from the IP input handler, which
// copies it out of the sender's envelope while the envelope is still
// alive, to the protocol action that runs after the rx buffer is
// released. It returns to the pool when that action finishes.
type ipRecv struct {
	dg    Datagram
	ok    bool // the frame carried a datagram
	input func()
}

// StackStats aggregates IP-level accounting.
type StackStats struct {
	IPOut, IPIn     uint64
	BytesOut        uint64
	Dropped         uint64
	ChecksumErrors  uint64
	FramesFragments uint64
}

// NewStack builds the IP instance on the driver's machine and installs
// its receive handlers on the driver's split point.
func NewStack(drv *tradapter.Driver) *Stack {
	s := &Stack{
		k:    drv.Kernel(),
		drv:  drv,
		addr: drv.Station().Addr(),
		rdt:  make(map[ring.Addr]*RDTConn),
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

// OnDatagram installs the unreliable-datagram receive callback. The
// Datagram is the stack's pooled receive record: fn must copy what it
// keeps, because the record carries a later datagram once fn returns.
func (s *Stack) OnDatagram(fn func(*Datagram, sim.Time)) { s.dgRcv = fn }

// SendDatagram transmits one unreliable datagram (keep-alive class
// traffic) carrying tag. done may be nil.
func (s *Stack) SendDatagram(dst ring.Addr, payloadBytes int, tag uint32, done func()) {
	sd := s.getSend()
	sd.dg = Datagram{IP: IPHeader{Proto: ProtoDGram, Src: s.addr, Dst: dst}, Tag: tag, Bytes: payloadBytes}
	sd.done = done
	s.output(sd)
}

// getSend pops a free send record, building one (with its envelope's
// permanent chain shell and callbacks) on the cold path only.
func (s *Stack) getSend() *ipSend {
	if sd := s.sends.Get(); sd != nil {
		return sd
	}
	sd := &ipSend{}
	sd.out.Chain = &kernel.Chain{}
	sd.out.Chain.Tag = &sd.dg
	sd.out.Class = tradapter.ClassIP
	sd.out.Capture = sd.capture[:]
	sd.output = func() { s.output(sd) }
	sd.alloc = func() { s.allocAndResolve(sd) }
	sd.resolved = func(hw ring.Addr, ok bool) { s.transmit(sd, hw, ok) }
	sd.out.Done = func(ring.DeliveryStatus) {
		s.k.Pool.Free(sd.out.Chain)
		sd.complete()
	}
	sd.recycle = func(*tradapter.Outgoing) { s.sends.Put(sd) }
	return sd
}

// complete fires the caller's completion, once.
func (sd *ipSend) complete() {
	if done := sd.done; done != nil {
		sd.done = nil
		done()
	}
}

// drop ends a datagram that never reached the driver: its envelope was
// never handed out, so the record goes straight back to the pool.
func (s *Stack) drop(sd *ipSend) {
	s.stats.Dropped++
	sd.complete()
	s.sends.Put(sd)
}

// output runs the IP output path: per-packet header computation and
// checksum (the cost TCP/IP pays that CTMSP avoids), ARP resolution, then
// the driver queue at ordinary priority.
func (s *Stack) output(sd *ipSend) {
	s.ipID++
	sd.dg.IP.ID = s.ipID
	sd.dg.IP.Length = uint16(IPHeaderSize + sd.dg.Bytes)
	s.prog = append(s.prog[:0], rtpc.Do(IPOutput), rtpc.Do(ARPLookup), rtpc.Mark(sd.alloc))
	s.k.CPU().Submit(kernel.LevelSoftNet, s.prog, nil)
}

func (s *Stack) allocAndResolve(sd *ipSend) {
	total := IPHeaderSize + sd.dg.Bytes
	if !s.k.Pool.AllocInto(sd.out.Chain, total) {
		s.drop(sd)
		return
	}
	s.stats.IPOut++
	s.stats.BytesOut += uint64(total)
	s.arp.resolve(sd.dg.IP.Dst, sd.resolved)
}

// transmit hands a resolved datagram's envelope to the driver.
func (s *Stack) transmit(sd *ipSend, hwDst ring.Addr, ok bool) {
	if !ok {
		s.k.Pool.Free(sd.out.Chain)
		s.drop(sd)
		return
	}
	sd.out.Size = IPHeaderSize + sd.dg.Bytes
	sd.out.Dst = hwDst
	sd.dg.IP.Encode(&sd.capture)
	sd.out.SetRecycle(sd.recycle)
	s.drv.Output(&sd.out)
}

// getRecv pops a free receive record, building one (with its permanent
// input action) on the cold path only.
func (s *Stack) getRecv() *ipRecv {
	if rr := s.rcvs.Get(); rr != nil {
		return rr
	}
	rr := &ipRecv{}
	rr.input = func() {
		if rr.ok {
			s.stats.IPIn++
			s.demux(&rr.dg)
		} else {
			s.stats.Dropped++
		}
		s.rcvs.Put(rr)
	}
	return rr
}

// ipInput is the driver split-point handler for IP frames.
func (s *Stack) ipInput(rcv *tradapter.Received) []rtpc.Seg {
	// The stock path copies the packet out of the fixed DMA buffer into
	// mbufs before protocol processing (§2's third copy); the copy loop
	// is interruptible. The protocol action runs after the buffer is
	// released and after the sender may have recycled its envelope, so
	// the datagram is copied out here, while both are still alive.
	rr := s.getRecv()
	rr.ok = false
	if out, ok := rcv.Frame.Payload.(*tradapter.Outgoing); ok {
		if dg, ok := out.Chain.Tag.(*Datagram); ok {
			rr.dg, rr.ok = *dg, true
		}
	}
	segs := s.k.Machine.CopySegs(s.prog[:0], rcv.Size, rcv.Buffer.Kind, rtpc.SystemMemory)
	s.prog = append(segs, rcv.ReleaseSeg(), rtpc.Then(IPInput, rr.input))
	return s.prog
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
