package measure

import (
	"reflect"
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

func newFourPointPCAT() (*sim.Scheduler, *PCAT) {
	sched := sim.NewScheduler()
	return sched, NewPCAT(sched, 5)
}

func TestPCATSamplesSeeLaterStrobes(t *testing.T) {
	sched, pcat := newFourPointPCAT()
	fourPointPCAT(sched, pcat, 0, 20)
	sched.RunUntil(20 * 12 * sim.Millisecond)
	first := pcat.Samples()[P4RxClassified]
	if len(first) == 0 {
		t.Fatal("no samples recorded")
	}
	fourPointPCAT(sched, pcat, 20, 30)
	sched.RunUntil(60 * 12 * sim.Millisecond)
	pcat.Stop()
	all := pcat.Samples()
	got := all[P4RxClassified]
	if len(got) != 50 {
		t.Fatalf("after more strobes: %d samples, want 50", len(got))
	}
	decoded, err := DecodePCAT(pcat.Records())
	if err != nil {
		t.Fatal(err)
	}
	for p, s := range all {
		if len(s) != len(decoded[p]) {
			t.Fatalf("%v: %d samples, channel %d decoded %d events", Point(p), len(s), p, len(decoded[p]))
		}
		for i, ev := range decoded[p] {
			if s[i] != ev {
				t.Fatalf("%v sample %d is %+v, channel %d decoded %+v", Point(p), i, s[i], p, ev)
			}
		}
	}
	if !reflect.DeepEqual(got[:len(first)], first) {
		t.Fatal("earlier samples changed after more strobes")
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
	if len(decoded[0]) != 1 || decoded[0][0] != (Sample{Num: 3, T: 10 * PCATClockTick}) {
		t.Fatalf("decoded prefix %v", decoded[0])
	}
}
