package measure

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// uncachedPCAT answers Samples by decoding the whole record log on every
// call, as PCAT did before it cached the decode.
type uncachedPCAT struct{ *PCAT }

func (u uncachedPCAT) Samples(point Point) []Sample {
	decoded, err := DecodePCAT(u.Records())
	if err != nil {
		return nil
	}
	var out []Sample
	for ch := 0; ch < PCATChannels; ch++ {
		if !u.wired[ch] || u.chanPoint[ch] != point {
			continue
		}
		for _, ev := range decoded[ch] {
			out = append(out, Sample{Point: point, Num: uint32(ev.Val), T: ev.T})
		}
	}
	return out
}

// fourPointPCAT records n packets through all four points, 12 ms apart.
func fourPointPCAT(sched *sim.Scheduler, pcat *PCAT, from, n int) {
	for i := from; i < from+n; i++ {
		num := uint32(i)
		base := sim.Time(i) * 12 * sim.Millisecond
		sched.At(base, func() { pcat.Record(P1VCAIRQ, num) })
		sched.At(base+40*sim.Microsecond, func() { pcat.Record(P2HandlerEntry, num) })
		sched.At(base+2640*sim.Microsecond, func() { pcat.Record(P3PreTransmit, num) })
		sched.At(base+13380*sim.Microsecond, func() { pcat.Record(P4RxClassified, num) })
	}
}

func newFourPointPCAT() (*sim.Scheduler, *PCAT) {
	sched := sim.NewScheduler()
	pcat := NewPCAT(sched, 5)
	for ch, p := range []Point{P1VCAIRQ, P2HandlerEntry, P3PreTransmit, P4RxClassified} {
		pcat.Wire(p, ch)
	}
	return sched, pcat
}

func TestPCATSamplesSeeLaterStrobes(t *testing.T) {
	sched, pcat := newFourPointPCAT()
	fourPointPCAT(sched, pcat, 0, 20)
	sched.RunUntil(20 * 12 * sim.Millisecond)
	first := pcat.Samples(P4RxClassified)
	if len(first) == 0 {
		t.Fatal("no samples recorded")
	}
	fourPointPCAT(sched, pcat, 20, 30)
	sched.RunUntil(60 * 12 * sim.Millisecond)
	pcat.Stop()
	got := pcat.Samples(P4RxClassified)
	if len(got) != 50 {
		t.Fatalf("after more strobes: %d samples, want 50 (stale decode?)", len(got))
	}
	if !reflect.DeepEqual(got, uncachedPCAT{pcat}.Samples(P4RxClassified)) {
		t.Fatal("cached samples differ from a fresh decode")
	}
	if !reflect.DeepEqual(got[:len(first)], first) {
		t.Fatal("earlier samples changed after more strobes")
	}
}

// BuildHistograms asks for four points; they must share one decode and
// produce exactly what a decode per point produced.
func TestPCATHistogramsMatchUncachedDecode(t *testing.T) {
	sched, pcat := newFourPointPCAT()
	fourPointPCAT(sched, pcat, 0, 200)
	sched.RunUntil(201 * 12 * sim.Millisecond)
	pcat.Stop()
	got := BuildHistograms(pcat, 20)
	want := BuildHistograms(uncachedPCAT{pcat}, 20)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("histograms from the cached decode differ from a decode per point")
	}
	if len(got.H[H1InterIRQ].Samples()) == 0 || len(got.H[H7TxToRx].Samples()) == 0 {
		t.Fatal("histograms are empty")
	}
	// With the log unchanged, Samples reuses the decode.
	if pcat.decodedN != len(pcat.Records()) {
		t.Fatalf("decode covers %d of %d records", pcat.decodedN, len(pcat.Records()))
	}
	first := &pcat.decoded[1][0]
	pcat.Samples(P2HandlerEntry)
	if &pcat.decoded[1][0] != first {
		t.Fatal("Samples decoded the unchanged log again")
	}
}

// DecodePCAT counts before it appends: every channel slice is allocated
// once at its final length.
func TestPCATDecodeSizesChannelsExactly(t *testing.T) {
	sched, pcat := newFourPointPCAT()
	fourPointPCAT(sched, pcat, 0, 100)
	sched.RunUntil(101 * 12 * sim.Millisecond)
	pcat.Stop()
	decoded, err := DecodePCAT(pcat.Records())
	if err != nil {
		t.Fatal(err)
	}
	for ch, evs := range decoded {
		if cap(evs) != len(evs) {
			t.Fatalf("channel %d: len %d cap %d, want an exact-size slice", ch, len(evs), cap(evs))
		}
	}
	if len(decoded[0]) != 100 || len(decoded[PCATMarkerChannel]) == 0 {
		t.Fatalf("decoded %d channel-0 events and %d markers", len(decoded[0]), len(decoded[PCATMarkerChannel]))
	}
	if allocs := testing.AllocsPerRun(10, func() { DecodePCAT(pcat.Records()) }); allocs != 5 {
		t.Fatalf("DecodePCAT allocated %v times for 5 channels, want 5", allocs)
	}
}

// A decode error keeps the events before the bad record.
func TestPCATDecodeErrorKeepsPrefix(t *testing.T) {
	recs := []PCATRecord{
		{Mask: 1, Clock16: 10, Vals: [PCATChannels]uint8{3}},
		{},
		{Mask: 1, Clock16: 20},
	}
	decoded, err := DecodePCAT(recs)
	if err == nil {
		t.Fatal("empty mask should be a decode error")
	}
	if len(decoded[0]) != 1 || decoded[0][0] != (PCATEvent{T: 10 * PCATClockTick, Val: 3}) {
		t.Fatalf("decoded prefix %v", decoded[0])
	}
}
