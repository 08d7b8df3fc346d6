package measure

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TAP trace file format — the moral equivalent of the recordings IBM's
// Trace and Performance program saved for later examination [IBM90]:
//
//	header:  magic "CTAP"(4) version(2) reserved(2)
//	record:  t(8) ac(1) fc(1) kind(1) mac(1) src(2) dst(2) len(4)
//	         flags(1) capLen(1) capture(capLen)
//
// All integers big-endian. Timestamps are nanoseconds of simulated time.
const (
	tapMagic   = 0x43544150 // "CTAP"
	tapVersion = 1
)

const flagLost = 0x01

// WriteTrace serializes a capture to w.
func WriteTrace(w io.Writer, entries []TAPEntry) error {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], tapMagic)
	binary.BigEndian.PutUint16(hdr[4:], tapVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for i, e := range entries {
		capture := e.Capture
		if len(capture) > TAPCaptureBytes {
			capture = capture[:TAPCaptureBytes]
		}
		var rec [21]byte
		binary.BigEndian.PutUint64(rec[0:], uint64(e.T))
		rec[8] = e.AC
		rec[9] = e.FC
		rec[10] = uint8(e.Kind)
		rec[11] = uint8(e.MAC)
		binary.BigEndian.PutUint16(rec[12:], uint16(e.Src))
		binary.BigEndian.PutUint16(rec[14:], uint16(e.Dst))
		binary.BigEndian.PutUint32(rec[16:], uint32(e.Len))
		if e.Lost {
			rec[20] |= flagLost
		}
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		if err := bw.WriteByte(uint8(len(capture))); err != nil {
			return err
		}
		if _, err := bw.Write(capture); err != nil {
			return fmt.Errorf("measure: record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a capture written by WriteTrace.
func ReadTrace(r io.Reader) ([]TAPEntry, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("measure: trace header: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[0:]) != tapMagic {
		return nil, fmt.Errorf("measure: not a CTAP trace")
	}
	if v := binary.BigEndian.Uint16(hdr[4:]); v != tapVersion {
		return nil, fmt.Errorf("measure: unsupported trace version %d", v)
	}
	var out []TAPEntry
	for {
		var rec [21]byte
		if _, err := io.ReadFull(br, rec[:]); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("measure: record %d: %w", len(out), err)
		}
		e := TAPEntry{
			T:    sim.Time(binary.BigEndian.Uint64(rec[0:])),
			AC:   rec[8],
			FC:   rec[9],
			Kind: ring.FrameKind(rec[10]),
			MAC:  ring.MACType(rec[11]),
			Src:  ring.Addr(binary.BigEndian.Uint16(rec[12:])),
			Dst:  ring.Addr(binary.BigEndian.Uint16(rec[14:])),
			Len:  int(binary.BigEndian.Uint32(rec[16:])),
			Lost: rec[20]&flagLost != 0,
		}
		capLen, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("measure: record %d capture length: %w", len(out), err)
		}
		if capLen > 0 {
			e.Capture = make([]byte, capLen)
			if _, err := io.ReadFull(br, e.Capture); err != nil {
				return nil, fmt.Errorf("measure: record %d capture: %w", len(out), err)
			}
		}
		out = append(out, e)
	}
}

// TraceAnalysis is the summary of a capture, live or read back from a
// trace file.
type TraceAnalysis struct {
	Frames      int
	Span        sim.Time // first frame's start to the last one's end on the wire
	Utilization float64  // busy wire time over Span, at the given bit rate
	MACFrames   int
	LostFrames  int
	// SizeClasses buckets frames into the paper's three observed size
	// classes — ~20-byte MAC frames, 60–300-byte keep-alives and
	// 1522-byte file-transfer packets — plus CTMSP's 2000-byte packets.
	SizeClasses map[string]int
	// InterArrival holds the gaps between consecutive frames' starts, in
	// µs; nil with fewer than two frames.
	InterArrival *stats.Histogram
}

// AnalyzeTrace computes the summary the TAP operators read, for a ring
// running at bitRate.
func AnalyzeTrace(entries []TAPEntry, bitRate int64) TraceAnalysis {
	a := TraceAnalysis{SizeClasses: make(map[string]int)}
	a.Frames = len(entries)
	if len(entries) == 0 {
		return a
	}
	if len(entries) > 1 {
		a.InterArrival = stats.NewHistogram(1000, "inter-arrival")
	}
	var busy sim.Time
	for i, e := range entries {
		busy += sim.WireTime(e.Len, bitRate)
		if e.Kind == ring.MAC {
			a.MACFrames++
		}
		if e.Lost {
			a.LostFrames++
		}
		switch {
		case e.Len <= 30:
			a.SizeClasses["mac(~20B)"]++
		case e.Len <= 320:
			a.SizeClasses["keepalive(60-300B)"]++
		case e.Len <= 1600:
			a.SizeClasses["filetransfer(~1522B)"]++
		default:
			a.SizeClasses["ctmsp(~2000B)"]++
		}
		if i > 0 {
			a.InterArrival.Add((e.T - entries[i-1].T).Microseconds())
		}
	}
	last := entries[len(entries)-1]
	a.Span = last.T + sim.WireTime(last.Len, bitRate) - entries[0].T
	if a.Span > 0 {
		a.Utilization = float64(busy) / float64(a.Span)
	}
	return a
}
