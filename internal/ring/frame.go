// Package ring models a 4 Mbit/s IEEE 802.5-style Token Ring at the level
// of detail the paper's measurements depend on: serial transmission time,
// token-acquisition wait, eight access-priority levels, MAC frame traffic,
// the Active Monitor's Ring Purge (triggered by station insertion, the sole
// source of unrecoverable packet loss in the paper), and the hardware
// delivery confirmation a transmitter sees in the returning frame's
// address-recognized/frame-copied bits.
package ring

import (
	"fmt"

	"repro/internal/sim"
)

// Addr identifies a station on the ring.
type Addr uint16

// Broadcast is the all-stations destination address.
const Broadcast Addr = 0xFFFF

// FrameKind distinguishes data (LLC) frames from MAC management frames.
//
//ctmsvet:enum
type FrameKind uint8

const (
	// LLC is an ordinary data frame.
	LLC FrameKind = iota
	// MAC is a medium-access-control management frame.
	MAC
)

func (k FrameKind) String() string {
	switch k {
	case LLC:
		return "LLC"
	case MAC:
		return "MAC"
	}
	return fmt.Sprintf("FrameKind(%d)", uint8(k))
}

// MACType enumerates the MAC frames the model generates.
//
//ctmsvet:enum
type MACType uint8

const (
	MACNone MACType = iota
	// MACRingPurge is transmitted by the Active Monitor after an error or
	// a station insertion.
	MACRingPurge
	// MACActiveMonitorPresent is the Active Monitor's periodic heartbeat.
	MACActiveMonitorPresent
	// MACStandbyMonitorPresent is the response from other stations.
	MACStandbyMonitorPresent
)

func (m MACType) String() string {
	switch m {
	case MACNone:
		return "none"
	case MACRingPurge:
		return "ring-purge"
	case MACActiveMonitorPresent:
		return "active-monitor-present"
	case MACStandbyMonitorPresent:
		return "standby-monitor-present"
	}
	return fmt.Sprintf("MACType(%d)", uint8(m))
}

// Frame is one frame on the ring. Size is the total length in bytes as it
// occupies the wire (the paper quotes total lengths: MAC ≈20 B, keep-alives
// 60–300 B, file transfer 1522 B, CTMSP 2000 B + ring protocol bytes).
type Frame struct {
	AC       byte // access control: priority in low 3 bits, token/monitor bits above
	FC       byte // frame control: distinguishes MAC from LLC
	Src, Dst Addr
	Priority int // ring access priority 0..7 (also encoded in AC)
	Kind     FrameKind
	MAC      MACType
	Size     int // total bytes on the wire
	// Capture is up to the first MaxCapture bytes, what a TAP monitor
	// records. The sender owns them and may reuse them once the frame's
	// life is over, so anything that keeps them longer copies them.
	Capture []byte
	Payload any    // opaque model payload (mbuf chain, protocol packet, ...)
	Seq     uint64 // ring-global sequence number, assigned at transmit

	// Pooled-frame recycling (SetRecycle): refs counts the holders that
	// may still read the frame.
	recycle func(*Frame)
	refs    int32
}

// SetRecycle makes f a pooled frame: fn runs, with f, once the frame is
// provably dead. Arming gives the frame one reference, its transmission's,
// which the ring drops right after the transmitter's completion callback
// — after delivery and after every tap has run. A receiver that keeps the
// frame past its receive callback (an adapter holding it through card
// latency and an rx buffer) takes a reference with Hold and drops it with
// Release; receivers that read the frame only inside the callback, and
// taps, take none. Arm the frame after building it and before Transmit:
// building it again (DataFrame, MACFrame) disarms it. A holder that never
// releases leaves the frame to the collector, and its pool refills on
// its cold path.
func (f *Frame) SetRecycle(fn func(*Frame)) {
	f.recycle = fn
	f.refs = 1
}

// Hold takes one more reference on a pooled frame; a no-op for a frame
// that never armed recycling.
func (f *Frame) Hold() {
	if f.recycle != nil {
		f.refs++
	}
}

// Release drops one reference; the last one runs the recycle hook. A
// no-op for a frame that never armed recycling.
func (f *Frame) Release() {
	if f.recycle == nil {
		return
	}
	f.refs--
	if f.refs == 0 {
		fn := f.recycle
		f.recycle = nil
		fn(f)
	}
}

// MaxCapture is the longest Capture a frame carries: "the first Token
// Ring adapter's buffer of actual packet data (up to 96 bytes)".
const MaxCapture = 96

// EncodeAC builds the access-control byte for a priority.
func EncodeAC(priority int, token bool) byte {
	ac := byte(priority & 0x7)
	if token {
		ac |= 0x10
	}
	return ac
}

// EncodeFC builds the frame-control byte.
func EncodeFC(kind FrameKind) byte {
	if kind == MAC {
		return 0x00
	}
	return 0x40
}

// DataFrame builds an LLC frame with sensible control bytes, as a value
// for a sender that keeps the frame in storage of its own.
func DataFrame(src, dst Addr, priority, size int, capture []byte, payload any) Frame {
	if len(capture) > MaxCapture {
		capture = capture[:MaxCapture]
	}
	return Frame{
		AC:       EncodeAC(priority, false),
		FC:       EncodeFC(LLC),
		Src:      src,
		Dst:      dst,
		Priority: priority,
		Kind:     LLC,
		Size:     size,
		Capture:  capture,
		Payload:  payload,
	}
}

// NewDataFrame is DataFrame on the heap.
func NewDataFrame(src, dst Addr, priority, size int, capture []byte, payload any) *Frame {
	f := DataFrame(src, dst, priority, size, capture, payload)
	return &f
}

// MACFrame builds a ~20-byte MAC management frame, as a value for a
// sender that keeps the frame in storage of its own.
func MACFrame(src Addr, typ MACType) Frame {
	return Frame{
		AC:       EncodeAC(7, false), // MAC frames travel at the highest priority
		FC:       EncodeFC(MAC),
		Src:      src,
		Dst:      Broadcast,
		Priority: 7,
		Kind:     MAC,
		MAC:      typ,
		Size:     20,
	}
}

// NewMACFrame is MACFrame on the heap.
func NewMACFrame(src Addr, typ MACType) *Frame {
	f := MACFrame(src, typ)
	return &f
}

// DeliveryStatus is what the transmitting adapter learns when the frame it
// sent returns around the ring (or fails to).
type DeliveryStatus struct {
	// Delivered reports whether the destination copied the frame.
	Delivered bool
	// AddrRecognized is the A bit: the destination saw its address.
	AddrRecognized bool
	// FrameCopied is the C bit: the destination copied the frame into an
	// adapter buffer.
	FrameCopied bool
	// PurgeLost reports the frame was destroyed by a Ring Purge while in
	// flight. Real adapters give the host NO interrupt for this — the
	// paper's central reliability caveat — so drivers must only look at
	// this field when the hypothetical purge-interrupt ablation is on.
	PurgeLost bool
	// CompletedAt is when the transmitter learned the outcome.
	CompletedAt sim.Time
}

func (d DeliveryStatus) String() string {
	return fmt.Sprintf("delivered=%t A=%t C=%t purgeLost=%t at=%v",
		d.Delivered, d.AddrRecognized, d.FrameCopied, d.PurgeLost, d.CompletedAt)
}
