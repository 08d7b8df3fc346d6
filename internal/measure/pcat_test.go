package measure

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

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

func newFourPointPCAT(seed int64) (*sim.Scheduler, *PCAT, *logSink) {
	sched := sim.NewScheduler()
	log := new(logSink)
	return sched, NewPCAT(sched, seed, log), log
}

// The rig hands each sample over as it captures it: a run split in two
// hands over exactly the samples of the same run made in one go, and
// samples already handed over never change.
func TestPCATSamplesSeeLaterStrobes(t *testing.T) {
	sched, pcat, log := newFourPointPCAT(5)
	fourPointPCAT(sched, pcat, 0, 20)
	sched.RunUntil(20 * 12 * sim.Millisecond)
	first := slices.Clone(log[P4RxClassified])
	if len(first) == 0 {
		t.Fatal("no samples recorded")
	}
	fourPointPCAT(sched, pcat, 20, 30)
	sched.RunUntil(60 * 12 * sim.Millisecond)
	pcat.Stop()
	got := log[P4RxClassified]
	if len(got) != 50 {
		t.Fatalf("after more strobes: %d samples, want 50", len(got))
	}
	if !reflect.DeepEqual(got[:len(first)], first) {
		t.Fatal("earlier samples changed after more strobes")
	}

	sched, whole, wholeLog := newFourPointPCAT(5)
	fourPointPCAT(sched, whole, 0, 50)
	sched.RunUntil(60 * 12 * sim.Millisecond)
	whole.Stop()
	if !reflect.DeepEqual(*log, *wholeLog) || pcat.Records() != whole.Records() {
		t.Fatalf("a split run handed over different samples (%d records) than one run (%d)", pcat.Records(), whole.Records())
	}
}

// fourPointRecords is the record stream of n packets through all four
// points, 12 ms apart, with the 50 Hz marker, as the second PC/AT saves
// it: one record per strobe, in time order, on the wrapping 2 µs clock.
func fourPointRecords(n int) []PCATRecord {
	type strobe struct {
		at sim.Time
		ch int
		v  uint8
	}
	var evs []strobe
	offsets := [NumPoints]sim.Time{0, 40 * sim.Microsecond, 2640 * sim.Microsecond, 13380 * sim.Microsecond}
	for i := 0; i < n; i++ {
		for p, off := range offsets {
			evs = append(evs, strobe{sim.Time(i)*12*sim.Millisecond + off, p, uint8(i & 0x7F)})
		}
	}
	end := sim.Time(n) * 12 * sim.Millisecond
	for at := PCATMarkerPeriod; at <= end; at += PCATMarkerPeriod {
		evs = append(evs, strobe{at, PCATMarkerChannel, 1})
	}
	slices.SortStableFunc(evs, func(a, b strobe) int { return cmp.Compare(a.at, b.at) })
	recs := make([]PCATRecord, len(evs))
	for i, e := range evs {
		recs[i] = PCATRecord{Mask: 1 << e.ch, Clock16: uint16(e.at / PCATClockTick % pcatWrap)}
		recs[i].Vals[e.ch] = e.v
	}
	return recs
}

// DecodePCAT counts before it appends: every channel slice is allocated
// once at its final length.
func TestPCATDecodeSizesChannelsExactly(t *testing.T) {
	recs := fourPointRecords(100)
	decoded, err := DecodePCAT(recs)
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
	if last := decoded[P4RxClassified][99]; last != (Sample{Num: 99, T: 99*12*sim.Millisecond + 13380*sim.Microsecond}) {
		t.Fatalf("last P4 event decoded as %+v across %d clock wraps", last, 99*12*sim.Millisecond/(pcatWrap*PCATClockTick))
	}
	if allocs := testing.AllocsPerRun(10, func() { DecodePCAT(recs) }); allocs != 5 {
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
	if len(decoded[0]) != 1 || decoded[0][0] != (Sample{Num: 3, T: 10 * PCATClockTick}) {
		t.Fatalf("decoded prefix %v", decoded[0])
	}
}
