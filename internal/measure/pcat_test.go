package measure

import (
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
