package measure

import (
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestLogicAnalyzerExact(t *testing.T) {
	sched := sim.NewScheduler()
	var log logSink
	la := NewLogicAnalyzer(sched, &log)
	sched.At(100*sim.Microsecond, func() { la.Record(P1VCAIRQ, 0) })
	sched.At(12100*sim.Microsecond, func() { la.Record(P1VCAIRQ, 1) })
	sched.Run()
	s := log[P1VCAIRQ]
	if len(s) != 2 || s[0].T != 100*sim.Microsecond || s[1].T != 12100*sim.Microsecond {
		t.Fatalf("logic analyzer must be exact: %+v", s)
	}
}

func TestPseudoDevQuantizesAndPerturbs(t *testing.T) {
	sched := sim.NewScheduler()
	m := rtpc.NewMachine(sched, "m", 1)
	k := kernel.New(m)
	var log logSink
	pd := NewPseudoDev(k, &log)
	sched.At(300*sim.Microsecond, func() { pd.Record(P2HandlerEntry, 0) })
	sched.Run()
	s := log[P2HandlerEntry]
	if len(s) != 1 {
		t.Fatal("sample lost")
	}
	if s[0].T != 244*sim.Microsecond { // floor(300/122)*122
		t.Fatalf("timestamp should quantize to the 122µs clock: %v", s[0].T)
	}
	if k.CPU().Stats().BusyTime != PseudoDevRecordCost {
		t.Fatal("recording must consume measured-machine CPU")
	}
	// The pseudo device cannot see the IRQ line.
	pd.Record(P1VCAIRQ, 0)
	if len(log[P1VCAIRQ]) != 0 || pd.Dropped() != 1 {
		t.Fatal("P1 is hardware-only")
	}
}

func TestPCATErrorBounds(t *testing.T) {
	sched := sim.NewScheduler()
	var log logSink
	pcat := NewPCAT(sched, 1, &log)
	// A perfect 12 ms source, as §5.2.3's validation test.
	for i := 0; i < 2000; i++ {
		n := uint32(i)
		sched.At(sim.Time(i)*12*sim.Millisecond, func() { pcat.Record(P1VCAIRQ, n) })
	}
	// The marker repeater never drains the queue; bound the run.
	sched.RunUntil(2000 * 12 * sim.Millisecond)
	pcat.Stop()
	s := log[P1VCAIRQ]
	if len(s) != 2000 {
		t.Fatalf("want 2000 samples, got %d", len(s))
	}
	// Inter-occurrence must stay within ±(loop worst case) of 12 ms,
	// i.e. the ±120µs total spread the paper measured... which here is
	// bounded by ±52µs of service jitter plus 2µs quantization per edge.
	for i := 1; i < len(s); i++ {
		d := (s[i].T - s[i-1].T).Microseconds()
		if d < 12000-120 || d > 12000+120 {
			t.Fatalf("sample %d: interval %vµs outside the tool's error budget", i, d)
		}
	}
}

func TestPCATRolloverReconstruction(t *testing.T) {
	// Events far apart force multiple 131 ms clock rollovers; the 50 Hz
	// marker must let the decoder reconstruct absolute times.
	sched := sim.NewScheduler()
	var log logSink
	pcat := NewPCAT(sched, 2, &log)
	times := []sim.Time{10 * sim.Millisecond, 500 * sim.Millisecond, 2 * sim.Second, 10 * sim.Second}
	for i, at := range times {
		n := uint32(i)
		sched.At(at, func() { pcat.Record(P3PreTransmit, n) })
	}
	sched.RunUntil(11 * sim.Second)
	pcat.Stop()
	s := log[P3PreTransmit]
	if len(s) != len(times) {
		t.Fatalf("want %d samples, got %d", len(times), len(s))
	}
	if got := log.points(); got != 1<<P3PreTransmit {
		t.Fatalf("P3 strobed point mask %04b, want point %d", got, P3PreTransmit)
	}
	for i, smp := range s {
		err := smp.T - times[i]
		if err < 0 || err > PCATLoopMax+PCATClockTick {
			t.Fatalf("sample %d reconstructed at %v, true time %v (err %v)", i, smp.T, times[i], err)
		}
	}
}

// Property: for any sorted event times with gaps under the marker's
// rollover guarantee, decoding recovers each time within the loop error.
func TestPCATDecodeProperty(t *testing.T) {
	f := func(gaps []uint16) bool {
		sched := sim.NewScheduler()
		var log logSink
		pcat := NewPCAT(sched, 3, &log)
		at := sim.Time(0)
		var want []sim.Time
		for i, gp := range gaps {
			at += sim.Time(gp) * sim.Microsecond // gaps ≤ 65.5 ms
			want = append(want, at)
			n := uint32(i)
			tt := at
			sched.At(tt, func() { pcat.Record(P4RxClassified, n) })
		}
		sched.RunUntil(at + 100*sim.Millisecond)
		pcat.Stop()
		s := log[P4RxClassified]
		if len(s) != len(want) || (len(s) > 0 && log.points() != 1<<P4RxClassified) {
			return false
		}
		for i := range s {
			err := s[i].T - want[i]
			if err < 0 || err > PCATLoopMax+PCATClockTick+PCATLoopMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchedDeltaPairsByPacketNumber(t *testing.T) {
	var a, b []Sample
	for i := 0; i < 200; i++ {
		a = append(a, Sample{Num: uint32(i), T: sim.Time(i) * 12 * sim.Millisecond})
		b = append(b, Sample{Num: uint32(i), T: sim.Time(i)*12*sim.Millisecond + 10700*sim.Microsecond})
	}
	h := streamPair(a, b)
	if h.N() != 200 {
		t.Fatalf("want 200 matches, got %d", h.N())
	}
	if h.Mean() != 10700 {
		t.Fatalf("delta mean %v", h.Mean())
	}
}

func TestMatchedDeltaSurvives7BitWrap(t *testing.T) {
	// Packet numbers wrap at 128 on the PC/AT channels; matching must
	// still pair correctly past the wrap.
	var a, b []Sample
	for i := 0; i < 300; i++ {
		num := uint32(i % 128)
		a = append(a, Sample{Num: num, T: sim.Time(i) * 12 * sim.Millisecond})
		b = append(b, Sample{Num: num, T: sim.Time(i)*12*sim.Millisecond + 5*sim.Millisecond})
	}
	h := streamPair(a, b)
	if h.N() != 300 {
		t.Fatalf("want 300 matches across wraps, got %d", h.N())
	}
}

func TestMatchedDeltaSkipsLostPackets(t *testing.T) {
	var a, b []Sample
	for i := 0; i < 100; i++ {
		a = append(a, Sample{Num: uint32(i), T: sim.Time(i) * 12 * sim.Millisecond})
		if i == 50 {
			continue // packet 50 lost before point b
		}
		b = append(b, Sample{Num: uint32(i), T: sim.Time(i)*12*sim.Millisecond + 5*sim.Millisecond})
	}
	h := streamPair(a, b)
	if h.N() != 99 {
		t.Fatalf("one lost packet should drop one match: %d", h.N())
	}
	if h.Max() != 5000 {
		t.Fatalf("no mismatched pairs allowed: max=%v", h.Max())
	}
}

func TestInterOccurrence(t *testing.T) {
	an := NewAnalysis(100)
	for i := 0; i < 10; i++ {
		an.Add(P1VCAIRQ, Sample{T: sim.Time(i) * 12 * sim.Millisecond})
	}
	h := an.Finish().H[H1InterIRQ]
	if h.N() != 9 || h.Mean() != 12000 {
		t.Fatalf("inter-occurrence: n=%d mean=%v", h.N(), h.Mean())
	}
}

// One probe feeds two recorders, as a run feeds the logic analyzer and
// the configured tool: each tool's analysis builds all seven histograms
// from the same events, the analyzer exactly and the PC/AT rig within its
// error.
func TestBuildHistogramsAndMultiRecorder(t *testing.T) {
	sched := sim.NewScheduler()
	laAn, pcAn := NewAnalysis(100), NewAnalysis(100)
	la := NewLogicAnalyzer(sched, laAn)
	pcat := NewPCAT(sched, 4, pcAn)
	probe := func(p Point, n uint32) {
		la.Record(p, n)
		pcat.Record(p, n)
	}
	for i := 0; i < 50; i++ {
		n := uint32(i)
		base := sim.Time(i) * 12 * sim.Millisecond
		sched.At(base, func() { probe(P1VCAIRQ, n) })
		sched.At(base+40*sim.Microsecond, func() { probe(P2HandlerEntry, n) })
		sched.At(base+2640*sim.Microsecond, func() { probe(P3PreTransmit, n) })
		sched.At(base+13380*sim.Microsecond, func() { probe(P4RxClassified, n) })
	}
	sched.RunUntil(51 * 12 * sim.Millisecond)
	pcat.Stop()
	hs := laAn.Finish()
	if hs.H[H1InterIRQ].Mean() != 12000 {
		t.Fatalf("H1 mean %v", hs.H[H1InterIRQ].Mean())
	}
	if hs.H[H5IRQToEntry].Mean() != 40 {
		t.Fatalf("H5 mean %v", hs.H[H5IRQToEntry].Mean())
	}
	if hs.H[H6EntryToPreTransmit].Mean() != 2600 {
		t.Fatalf("H6 mean %v", hs.H[H6EntryToPreTransmit].Mean())
	}
	if hs.H[H7TxToRx].Mean() != 10740 {
		t.Fatalf("H7 mean %v", hs.H[H7TxToRx].Mean())
	}
	// The second recorder saw everything too.
	pc := pcAn.Finish()
	for id := H1InterIRQ; id < NumHistograms; id++ {
		if id.Label() == "" {
			t.Fatal("histogram labels must exist")
		}
		want, got := hs.H[id], pc.H[id]
		if got.N() != want.N() {
			t.Fatalf("%s: PC/AT n=%d, analyzer n=%d", id.Label(), got.N(), want.N())
		}
		tol := (PCATLoopMax + PCATClockTick).Microseconds()
		if d := got.Mean() - want.Mean(); d < -tol || d > tol {
			t.Fatalf("%s: PC/AT mean %v, analyzer %v", id.Label(), got.Mean(), want.Mean())
		}
	}
}

func TestTAPRecordsAndAnalyzes(t *testing.T) {
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	tap := NewTAP(r, 0)
	a := r.Attach("a")
	b := r.Attach("b")
	// Data frames with an embedded sequence number in the capture.
	for i := 0; i < 5; i++ {
		capture := []byte{byte(i)}
		a.Transmit(ring.NewDataFrame(a.Addr(), b.Addr(), 0, 2000, capture, nil), nil)
	}
	a.Transmit(ring.NewMACFrame(a.Addr(), ring.MACActiveMonitorPresent), nil)
	sched.Run()

	entries := tap.Entries()
	if len(entries) != 6 {
		t.Fatalf("TAP should see 6 frames, got %d", len(entries))
	}
	an := AnalyzeTrace(entries, ring.DefaultBitRate)
	if an.Frames != 6 || an.MACFrames != 1 || an.LostFrames != 0 {
		t.Fatalf("TAP analysis wrong: %+v", an)
	}
	if an.SizeClasses["mac(~20B)"] != 1 || an.SizeClasses["ctmsp(~2000B)"] != 5 {
		t.Fatalf("size classes: %+v", an.SizeClasses)
	}
	if an.InterArrival == nil || an.InterArrival.N() != 5 {
		t.Fatalf("inter-arrival: %v", an.InterArrival)
	}
	ooo, gaps := tap.SequenceCheck(func(c []byte) (uint32, bool) {
		if len(c) == 0 {
			return 0, false
		}
		return uint32(c[0]), true
	})
	if ooo != 0 || gaps != 0 {
		t.Fatalf("clean run should show no anomalies: ooo=%d gaps=%d", ooo, gaps)
	}
	if u := an.Utilization; u <= 0 || u > 1 {
		t.Fatalf("utilization implausible: %v", u)
	}
}

func TestTAPSequenceCheckFindsGap(t *testing.T) {
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	tap := NewTAP(r, 0)
	a := r.Attach("a")
	b := r.Attach("b")
	for _, n := range []byte{0, 1, 3, 4} { // 2 missing
		a.Transmit(ring.NewDataFrame(a.Addr(), b.Addr(), 0, 500, []byte{n}, nil), nil)
	}
	sched.Run()
	_, gaps := tap.SequenceCheck(func(c []byte) (uint32, bool) { return uint32(c[0]), true })
	if gaps != 1 {
		t.Fatalf("want 1 gap, got %d", gaps)
	}
}

func TestTAPCaptureLimit(t *testing.T) {
	sched := sim.NewScheduler()
	r := ring.New(sched, ring.DefaultConfig())
	tap := NewTAP(r, 3)
	a := r.Attach("a")
	b := r.Attach("b")
	for i := 0; i < 10; i++ {
		a.Transmit(ring.NewDataFrame(a.Addr(), b.Addr(), 0, 100, nil, nil), nil)
	}
	sched.Run()
	if len(tap.Entries()) != 3 || tap.Dropped() != 7 {
		t.Fatalf("capture limit: %d entries, %d dropped", len(tap.Entries()), tap.Dropped())
	}
}

// logSink collects every sample a tool hands over, per point, in record
// order: the log the tools no longer keep.
type logSink [NumPoints][]Sample

func (l *logSink) Add(p Point, s Sample) { l[p] = append(l[p], s) }

// points is the mask of points that received a sample.
func (l *logSink) points() uint8 {
	var m uint8
	for p, s := range l {
		if len(s) > 0 {
			m |= 1 << p
		}
	}
	return m
}

// streamPair streams a and b, merged in time order, through an analysis as
// points P3 and P4 and returns their matched-delta histogram, H7.
func streamPair(a, b []Sample) *stats.Histogram {
	an := NewAnalysis(100)
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || (len(a) > 0 && a[0].T <= b[0].T) {
			an.Add(P3PreTransmit, a[0])
			a = a[1:]
		} else {
			an.Add(P4RxClassified, b[0])
			b = b[1:]
		}
	}
	return an.Finish().H[H7TxToRx]
}

// Every point strobes its own channel, point p on channel p, carrying the
// low 7 bits of the packet number: one record each, decoded into one
// sample on that point.
func TestPCATPointsStrobeOwnChannels(t *testing.T) {
	sched := sim.NewScheduler()
	var log logSink
	pcat := NewPCAT(sched, 6, &log)
	for p := P1VCAIRQ; p < NumPoints; p++ {
		pcat.Record(p, 0x80|uint32(10+p))
	}
	pcat.Stop()
	if n := pcat.Records(); n != int(NumPoints) {
		t.Fatalf("%d records, want %d", n, NumPoints)
	}
	for p := P1VCAIRQ; p < NumPoints; p++ {
		if len(log[p]) != 1 || log[p][0].Num != uint32(10+p) {
			t.Fatalf("%v samples %+v, want one with value %d", p, log[p], 10+p)
		}
	}
}
