package measure

import (
	"repro/internal/ring"
	"repro/internal/sim"
)

// TAPCaptureBytes is how much of each packet the monitor records — "the
// first Token Ring adapter's buffer of actual packet data (up to 96
// bytes)".
const TAPCaptureBytes = ring.MaxCapture

// TAPEntry is one recorded frame: timestamp, Access Control and Frame
// Control bytes, total length, delivery outcome and the captured prefix.
type TAPEntry struct {
	T       sim.Time
	AC, FC  byte
	Kind    ring.FrameKind
	MAC     ring.MACType
	Src     ring.Addr
	Dst     ring.Addr
	Len     int
	Lost    bool
	Capture []byte
}

// TAP is the ring monitor, equivalent to IBM's Trace and Analysis
// Program: it records every frame on the ring, including MAC frames,
// with time stamps, and supports the ordering/loss analysis the paper
// used it for. AnalyzeTrace summarizes its Entries.
type TAP struct {
	entries []TAPEntry
	max     int
	dropped uint64
	// arena holds the entries' copies of the captured bytes: a frame's
	// capture buffer belongs to its sender, which reuses it for a later
	// packet once the frame is gone.
	arena []byte
}

// tapArenaChunk is the size of each block of the capture arena.
const tapArenaChunk = 64 << 10

// NewTAP attaches a monitor to the ring. max bounds the capture buffer
// (the real tool had recording limits too); 0 means 2^20 entries.
func NewTAP(r *ring.Ring, max int) *TAP {
	if max <= 0 {
		max = 1 << 20
	}
	t := &TAP{max: max}
	r.AddTap(func(f *ring.Frame, start, end sim.Time, status ring.DeliveryStatus) {
		if len(t.entries) >= t.max {
			t.dropped++
			return
		}
		cap96 := f.Capture
		if len(cap96) > TAPCaptureBytes {
			cap96 = cap96[:TAPCaptureBytes]
		}
		cap96 = t.keep(cap96)
		t.entries = append(t.entries, TAPEntry{
			T:       start,
			AC:      f.AC,
			FC:      f.FC,
			Kind:    f.Kind,
			MAC:     f.MAC,
			Src:     f.Src,
			Dst:     f.Dst,
			Len:     f.Size,
			Lost:    status.PurgeLost,
			Capture: cap96,
		})
	})
	return t
}

// keep copies b into the arena and returns the copy, or nil for no bytes.
func (t *TAP) keep(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if cap(t.arena)-len(t.arena) < len(b) {
		t.arena = make([]byte, 0, tapArenaChunk)
	}
	n := len(t.arena)
	t.arena = append(t.arena, b...)
	return t.arena[n:len(t.arena):len(t.arena)]
}

// Entries returns the captured frames in wire order.
func (t *TAP) Entries() []TAPEntry { return t.entries }

// Dropped reports frames lost to the capture-buffer limit.
func (t *TAP) Dropped() uint64 { return t.dropped }

// SequenceCheck scans captured CTMSP frames (recognized by the decoder
// fn, which extracts a packet number from the capture prefix) for
// out-of-order delivery and gaps — the analysis that found the original
// driver's critical-section bug.
func (t *TAP) SequenceCheck(decode func(capture []byte) (uint32, bool)) (outOfOrder, gaps int) {
	have := false
	var prev uint32
	for _, e := range t.entries {
		if e.Lost {
			continue
		}
		num, ok := decode(e.Capture)
		if !ok {
			continue
		}
		if have {
			switch {
			case num == prev+1:
			case num > prev+1:
				gaps++
			default:
				outOfOrder++
			}
		}
		prev, have = num, true
	}
	return outOfOrder, gaps
}
