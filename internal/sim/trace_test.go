package sim

import (
	"strings"
	"testing"
)

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	// All recording and reading methods must be no-ops on nil so call
	// sites can instrument unconditionally.
	tr.AddEvent(3, 1, 4, 5)
	if tr.EventLen() != 0 || tr.EventsDropped() != 0 {
		t.Fatal("nil trace should report empty")
	}
	if tr.Events() != nil || tr.EventsOfKind(1) != nil || tr.String() != "" {
		t.Fatal("nil trace reads should be empty")
	}
}

const testKindTick EventKind = 255 // reserved for tests; real kinds grow from 1

func init() { RegisterEventKind(testKindTick, "test.tick") }

func TestTraceStructuredRing(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 6; i++ {
		tr.AddEvent(Time(i)*Microsecond, testKindTick, int64(i), int64(i*10))
	}
	if tr.EventLen() != 4 {
		t.Fatalf("ring should hold 4 entries, got %d", tr.EventLen())
	}
	if tr.EventsDropped() != 2 {
		t.Fatalf("want 2 overwritten, got %d", tr.EventsDropped())
	}
	ev := tr.Events()
	for i, e := range ev {
		want := int64(i + 2) // oldest two overwritten
		if e.A != want || e.B != want*10 || e.Kind != testKindTick {
			t.Fatalf("entry %d wrong: %+v", i, e)
		}
	}
	if got := tr.EventsOfKind(testKindTick); len(got) != 4 {
		t.Fatalf("EventsOfKind: want 4, got %d", len(got))
	}
	if got := tr.EventsOfKind(200); got != nil {
		t.Fatalf("EventsOfKind for absent kind: want nil, got %v", got)
	}
}

func TestTraceLazyFormatting(t *testing.T) {
	tr := NewTrace(8)
	tr.AddEvent(Millisecond, testKindTick, 7, 9)
	tr.AddEvent(2*Millisecond, 200, 1, 2)
	s := tr.String()
	if !strings.Contains(s, "test.tick a=7 b=9") {
		t.Fatalf("structured entry should render its registered kind name:\n%s", s)
	}
	// Output is oldest-first: the 1 ms entry precedes the 2 ms one.
	if strings.Index(s, "test.tick") > strings.Index(s, "kind(200) a=1 b=2") {
		t.Fatalf("entries should render oldest-first:\n%s", s)
	}
	if got := EventKind(200).String(); got != "kind(200)" {
		t.Fatalf("unregistered kind placeholder wrong: %q", got)
	}
}

func TestTraceAddEventDoesNotAllocate(t *testing.T) {
	tr := NewTrace(1024)
	tr.AddEvent(0, testKindTick, 0, 0) // warm: ring backing array allocated here
	allocs := testing.AllocsPerRun(200, func() {
		tr.AddEvent(Microsecond, testKindTick, 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("AddEvent must be allocation-free after warmup, got %v allocs/op", allocs)
	}
}

func TestSchedulerTraceGetter(t *testing.T) {
	s := NewScheduler()
	if s.Trace() != nil {
		t.Fatal("fresh scheduler should have no trace")
	}
	// The getter + nil-safe methods make unconditional instrumentation
	// legal even with no trace attached.
	s.Trace().AddEvent(1, testKindTick, 0, 0)
	tr := NewTrace(0)
	s.SetTrace(tr)
	if s.Trace() != tr {
		t.Fatal("Trace should return the attached trace")
	}
}
