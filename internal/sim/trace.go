package sim

import (
	"fmt"
	"strings"
)

// EventKind identifies a structured trace event type. Kinds are small
// integers registered once at init time with RegisterEventKind; the
// registry maps them back to names only when a trace is rendered, so the
// recording path never touches a string.
type EventKind uint8

// eventKindNames is the sparse kind registry. Index 0 is reserved so a
// zero-valued EventEntry is visibly unregistered.
var eventKindNames [256]string

// RegisterEventKind names a kind for rendering. Call from package init;
// registering two different names for one kind is an invariant violation
// (kinds are assigned in disjoint per-package blocks).
func RegisterEventKind(k EventKind, name string) {
	Checkf(k != 0, "event kind 0 is reserved")
	Checkf(name != "", "event kind %d registered with empty name", k)
	Checkf(eventKindNames[k] == "" || eventKindNames[k] == name,
		"event kind %d registered twice: %q and %q", k, eventKindNames[k], name)
	eventKindNames[k] = name
}

// String reports the registered name, or a numeric placeholder for
// unregistered kinds.
func (k EventKind) String() string {
	if n := eventKindNames[k]; n != "" {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// EventEntry is one structured trace record: a kind plus two opaque
// operands whose meaning the kind defines (sequence numbers, byte counts,
// stream indices). It is four machine words with no pointers — recording
// one is a couple of stores into a preallocated ring, nothing for the
// garbage collector to trace.
type EventEntry struct {
	T    Time
	Kind EventKind
	A, B int64
}

// String renders the entry; formatting cost is paid here, at read time,
// never when the event was recorded.
func (e EventEntry) String() string {
	return fmt.Sprintf("%v a=%d b=%d", e.Kind, e.A, e.B)
}

// Trace is a bounded in-memory log of structured simulation events
// (AddEvent), kept in a preallocated ring. When the ring is full the
// oldest entries are overwritten, mirroring the fixed-size capture
// buffers of the measurement hardware the paper used.
//
// All recording methods are safe on a nil *Trace and do nothing, so call
// sites instrument unconditionally — sched.Trace().AddEvent(...) — and a
// run with no trace attached pays only the nil test.
type Trace struct {
	max int

	// events[ehead] is the oldest of elen live entries, wrapping at
	// len(events). The backing array is allocated once, on the first
	// AddEvent, sized to max.
	events   []EventEntry
	ehead    int
	elen     int
	edropped uint64
}

// NewTrace returns a trace that keeps at most max entries (0 means a
// default of 65536).
func NewTrace(max int) *Trace {
	if max <= 0 {
		max = 65536
	}
	return &Trace{max: max}
}

// AddEvent records a structured entry: three integer stores into a
// preallocated ring. No-op on a nil trace. This is the form hot paths use
// — no formatting, no allocation, nothing retained that the collector
// must scan.
func (t *Trace) AddEvent(at Time, kind EventKind, a, b int64) {
	if t == nil {
		return
	}
	if t.events == nil {
		t.events = make([]EventEntry, t.max)
	}
	i := t.ehead + t.elen
	if i >= len(t.events) {
		i -= len(t.events)
	}
	t.events[i] = EventEntry{T: at, Kind: kind, A: a, B: b}
	if t.elen < len(t.events) {
		t.elen++
		return
	}
	// Ring full: the slot we just wrote was the oldest entry.
	t.ehead++
	if t.ehead == len(t.events) {
		t.ehead = 0
	}
	t.edropped++
}

// EventLen reports the number of retained structured entries.
func (t *Trace) EventLen() int {
	if t == nil {
		return 0
	}
	return t.elen
}

// EventsDropped reports how many structured entries were overwritten.
func (t *Trace) EventsDropped() uint64 {
	if t == nil {
		return 0
	}
	return t.edropped
}

// Events returns the retained structured entries oldest-first. The slice
// is a fresh copy; the ring keeps recording.
func (t *Trace) Events() []EventEntry {
	if t == nil || t.elen == 0 {
		return nil
	}
	out := make([]EventEntry, t.elen)
	n := copy(out, t.events[t.ehead:min(t.ehead+t.elen, len(t.events))])
	copy(out[n:], t.events[:t.elen-n])
	return out
}

// EventsOfKind returns the retained structured entries of one kind,
// oldest-first.
func (t *Trace) EventsOfKind(k EventKind) []EventEntry {
	var out []EventEntry
	for _, e := range t.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// String renders the trace oldest-first, one entry per line. This is
// where structured entries finally pay their formatting cost.
func (t *Trace) String() string {
	var b strings.Builder
	for _, e := range t.Events() {
		fmt.Fprintf(&b, "%12v  %s\n", e.T, e)
	}
	return b.String()
}
