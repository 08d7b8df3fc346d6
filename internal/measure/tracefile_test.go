package measure

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ring"
	"repro/internal/sim"
)

func sampleEntries() []TAPEntry {
	return []TAPEntry{
		{T: 1000, AC: 0x04, FC: 0x40, Kind: ring.LLC, Src: 1, Dst: 2, Len: 2021, Capture: []byte{0xC7, 0x5D, 1, 0}},
		{T: 13000 * sim.Microsecond, AC: 0x07, FC: 0x00, Kind: ring.MAC, MAC: ring.MACRingPurge, Src: 1, Dst: ring.Broadcast, Len: 20},
		{T: 25000 * sim.Microsecond, Kind: ring.LLC, Src: 3, Dst: 2, Len: 1522, Lost: true},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleEntries()
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("count: %d vs %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.T != b.T || a.AC != b.AC || a.FC != b.FC || a.Kind != b.Kind ||
			a.MAC != b.MAC || a.Src != b.Src || a.Dst != b.Dst ||
			a.Len != b.Len || a.Lost != b.Lost || !bytes.Equal(a.Capture, b.Capture) {
			t.Fatalf("record %d differs:\n in: %+v\nout: %+v", i, a, b)
		}
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("short header must fail")
	}
	if _, err := ReadTrace(bytes.NewReader(make([]byte, 16))); err == nil {
		t.Fatal("bad magic must fail")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleEntries()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated record must fail")
	}
}

func TestTraceCaptureTruncatedTo96(t *testing.T) {
	big := make([]byte, 200)
	entries := []TAPEntry{{T: 1, Len: 300, Capture: big}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, entries); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0].Capture) != TAPCaptureBytes {
		t.Fatalf("capture should truncate to %d, got %d", TAPCaptureBytes, len(out[0].Capture))
	}
}

func TestAnalyzeTrace(t *testing.T) {
	a := AnalyzeTrace(sampleEntries(), 4_000_000)
	if a.Frames != 3 || a.MACFrames != 1 || a.LostFrames != 1 {
		t.Fatalf("counts: %+v", a)
	}
	if a.SizeClasses["ctmsp(~2000B)"] != 1 || a.SizeClasses["mac(~20B)"] != 1 || a.SizeClasses["filetransfer(~1522B)"] != 1 {
		t.Fatalf("classes: %+v", a.SizeClasses)
	}
	if a.InterArrival == nil || a.InterArrival.N() != 2 {
		t.Fatalf("inter-arrival: %v", a.InterArrival)
	}
	if a.InterArrival.CountWithin(0, 10_000) != 0 {
		t.Fatalf("both gaps exceed 10 ms: %v", a.InterArrival)
	}
	if a.Utilization <= 0 || a.Utilization > 1 {
		t.Fatalf("utilization: %v", a.Utilization)
	}
	empty := AnalyzeTrace(nil, 4_000_000)
	if empty.Frames != 0 || empty.InterArrival != nil {
		t.Fatal("empty analysis")
	}
}

// The span ends where the last frame leaves the wire, so back-to-back
// frames read exactly 100% and never more.
func TestAnalyzeTraceBackToBackIsFull(t *testing.T) {
	const bitRate = 4_000_000
	wire := sim.WireTime(2000, bitRate)
	var entries []TAPEntry
	for i := 0; i < 6; i++ {
		entries = append(entries, TAPEntry{T: sim.Time(i) * wire, Kind: ring.LLC, Len: 2000})
	}
	if a := AnalyzeTrace(entries, bitRate); a.Span != 6*wire || a.Utilization != 1 {
		t.Fatalf("six back-to-back frames: span %v, utilization %v, want %v and 1", a.Span, a.Utilization, 6*wire)
	}
	if a := AnalyzeTrace(entries[:1], bitRate); a.Span != wire || a.Utilization != 1 {
		t.Fatalf("one frame: span %v, utilization %v, want %v and 1", a.Span, a.Utilization, wire)
	}
}

// Property: any entry list round-trips.
func TestTraceProperty(t *testing.T) {
	f := func(ts []uint32, lens []uint16, caps [][]byte) bool {
		n := len(ts)
		if len(lens) < n {
			n = len(lens)
		}
		if len(caps) < n {
			n = len(caps)
		}
		var in []TAPEntry
		for i := 0; i < n; i++ {
			in = append(in, TAPEntry{
				T:       sim.Time(ts[i]),
				Len:     int(lens[i]),
				Capture: caps[i],
			})
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, in); err != nil {
			return false
		}
		out, err := ReadTrace(&buf)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			wantCap := in[i].Capture
			if len(wantCap) > TAPCaptureBytes {
				wantCap = wantCap[:TAPCaptureBytes]
			}
			if out[i].T != in[i].T || out[i].Len != in[i].Len {
				return false
			}
			if len(wantCap) == 0 && len(out[i].Capture) == 0 {
				continue
			}
			if !bytes.Equal(out[i].Capture, wantCap) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
