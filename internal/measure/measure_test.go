package measure

import (
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
)

func TestLogicAnalyzerExact(t *testing.T) {
	sched := sim.NewScheduler()
	la := NewLogicAnalyzer(sched)
	sched.At(100*sim.Microsecond, func() { la.Record(P1VCAIRQ, 0) })
	sched.At(12100*sim.Microsecond, func() { la.Record(P1VCAIRQ, 1) })
	sched.Run()
	s := la.Samples(P1VCAIRQ)
	if len(s) != 2 || s[0].T != 100*sim.Microsecond || s[1].T != 12100*sim.Microsecond {
		t.Fatalf("logic analyzer must be exact: %+v", s)
	}
}

func TestPseudoDevQuantizesAndPerturbs(t *testing.T) {
	sched := sim.NewScheduler()
	m := rtpc.NewMachine(sched, "m", rtpc.DefaultCostModel(), 1)
	k := kernel.New(m)
	pd := NewPseudoDev(k)
	sched.At(300*sim.Microsecond, func() { pd.Record(P2HandlerEntry, 0) })
	sched.Run()
	s := pd.Samples(P2HandlerEntry)
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
	if len(pd.Samples(P1VCAIRQ)) != 0 || pd.Dropped() != 1 {
		t.Fatal("P1 is hardware-only")
	}
	pd.SetEnabled(false)
	pd.Record(P2HandlerEntry, 1)
	if len(pd.Samples(P2HandlerEntry)) != 1 {
		t.Fatal("disabled recorder must not record")
	}
}

func TestPCATErrorBounds(t *testing.T) {
	sched := sim.NewScheduler()
	pcat := NewPCAT(sched, 1)
	pcat.Wire(P1VCAIRQ, 0)
	// A perfect 12 ms source, as §5.2.3's validation test.
	for i := 0; i < 2000; i++ {
		n := uint32(i)
		sched.At(sim.Time(i)*12*sim.Millisecond, func() { pcat.Record(P1VCAIRQ, n) })
	}
	// The marker repeater never drains the queue; bound the run.
	sched.RunUntil(2000 * 12 * sim.Millisecond)
	pcat.Stop()
	s := pcat.Samples(P1VCAIRQ)
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
	pcat := NewPCAT(sched, 2)
	pcat.Wire(P3PreTransmit, 1)
	times := []sim.Time{10 * sim.Millisecond, 500 * sim.Millisecond, 2 * sim.Second, 10 * sim.Second}
	for i, at := range times {
		n := uint32(i)
		sched.At(at, func() { pcat.Record(P3PreTransmit, n) })
	}
	sched.RunUntil(11 * sim.Second)
	pcat.Stop()
	s := pcat.Samples(P3PreTransmit)
	if len(s) != len(times) {
		t.Fatalf("want %d samples, got %d", len(times), len(s))
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
		pcat := NewPCAT(sched, 3)
		pcat.Wire(P4RxClassified, 2)
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
		s := pcat.Samples(P4RxClassified)
		if len(s) != len(want) {
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

func TestPCATDecodeRejectsEmptyMask(t *testing.T) {
	if _, err := DecodePCAT([]PCATRecord{{}}); err == nil {
		t.Fatal("empty mask should be a decode error")
	}
}

func TestMatchedDeltaPairsByPacketNumber(t *testing.T) {
	var a, b []Sample
	for i := 0; i < 200; i++ {
		a = append(a, Sample{Num: uint32(i), T: sim.Time(i) * 12 * sim.Millisecond})
		b = append(b, Sample{Num: uint32(i), T: sim.Time(i)*12*sim.Millisecond + 10700*sim.Microsecond})
	}
	h := MatchedDelta(a, b, 100, "h7")
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
	h := MatchedDelta(a, b, 100, "wrap")
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
	h := MatchedDelta(a, b, 100, "loss")
	if h.N() != 99 {
		t.Fatalf("one lost packet should drop one match: %d", h.N())
	}
	if h.Max() != 5000 {
		t.Fatalf("no mismatched pairs allowed: max=%v", h.Max())
	}
}

func TestInterOccurrence(t *testing.T) {
	var s []Sample
	for i := 0; i < 10; i++ {
		s = append(s, Sample{T: sim.Time(i) * 12 * sim.Millisecond})
	}
	h := InterOccurrence(s, 100, "h1")
	if h.N() != 9 || h.Mean() != 12000 {
		t.Fatalf("inter-occurrence: n=%d mean=%v", h.N(), h.Mean())
	}
}

func TestBuildHistogramsAndMultiRecorder(t *testing.T) {
	sched := sim.NewScheduler()
	la := NewLogicAnalyzer(sched)
	la2 := NewLogicAnalyzer(sched)
	multi := &MultiRecorder{Recorders: []Recorder{la, la2}}
	for i := 0; i < 50; i++ {
		n := uint32(i)
		base := sim.Time(i) * 12 * sim.Millisecond
		sched.At(base, func() { multi.Record(P1VCAIRQ, n) })
		sched.At(base+40*sim.Microsecond, func() { multi.Record(P2HandlerEntry, n) })
		sched.At(base+2640*sim.Microsecond, func() { multi.Record(P3PreTransmit, n) })
		sched.At(base+13380*sim.Microsecond, func() { multi.Record(P4RxClassified, n) })
	}
	sched.Run()
	hs := BuildHistograms(multi, 100)
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
	if len(la2.Samples(P4RxClassified)) != 50 {
		t.Fatal("multi-recorder fan-out broken")
	}
	for id := H1InterIRQ; id < NumHistograms; id++ {
		if id.Label() == "" {
			t.Fatal("histogram labels must exist")
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
	st := tap.Stats()
	if st.MACFrames != 1 || st.DataFrames != 5 {
		t.Fatalf("TAP stats wrong: %+v", st)
	}
	if st.SizeClasses["mac(~20B)"] != 1 || st.SizeClasses["ctmsp(~2000B)"] != 5 {
		t.Fatalf("size classes: %+v", st.SizeClasses)
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
	if u := tap.Utilization(4_000_000, sched.Now()); u <= 0 || u > 1 {
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
