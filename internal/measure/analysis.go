package measure

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// HistogramID names the seven histograms of §5.3.
type HistogramID int

const (
	// H1 is the inter-occurrence of VCA Interrupt Request pulses.
	H1InterIRQ HistogramID = iota
	// H2 is the inter-occurrence of VCA handler entries.
	H2InterEntry
	// H3 is the inter-occurrence of pre-transmit points.
	H3InterPreTransmit
	// H4 is the inter-occurrence of receive-classification points.
	H4InterRxClassified
	// H5 is the per-packet delta between IRQ and handler entry.
	H5IRQToEntry
	// H6 is the per-packet delta between handler entry and pre-transmit
	// (Figure 5-2 for Test Case B).
	H6EntryToPreTransmit
	// H7 is the per-packet delta between pre-transmit and
	// receive-classification (Figures 5-3 and 5-4).
	H7TxToRx
	// NumHistograms is the number of defined histograms.
	NumHistograms
)

var histLabels = [NumHistograms]string{
	"H1 inter-occurrence of VCA IRQ pulses",
	"H2 inter-occurrence of VCA handler entry",
	"H3 inter-occurrence of pre-transmit point",
	"H4 inter-occurrence of rx-classified point",
	"H5 VCA IRQ to handler entry",
	"H6 handler entry to pre-transmit (Fig 5-2)",
	"H7 pre-transmit to rx-classified (Figs 5-3/5-4)",
}

// Label returns the histogram's display name.
func (h HistogramID) Label() string { return histLabels[h] }

// matchedDeltaMax bounds a plausible pairing: with 7-bit packet numbers a
// pairing more than this far apart is a wrap artifact, not a measurement.
const matchedDeltaMax = 2e6 // µs

// matchWindow is how many b-samples an a-sample looks at before it gives
// up: drifting more than half the 7-bit wrap (≈64 packets) past the
// candidate window means its packet never reached point b.
const matchWindow = 65

// HistogramSet holds the seven histograms for one test run.
type HistogramSet struct {
	H [NumHistograms]*stats.Histogram
}

// Analysis builds the seven §5.3 histograms as a tool's samples arrive,
// the way the PC/AT rig's polling loop handled each strobe as it came.
// Histograms 1–4 need only each point's previous sample; histograms 5–7
// each pair the samples of two adjacent points with a matcher that holds
// only what a later sample can still pair with. Points the tool cannot see
// produce empty histograms.
//
// Samples must arrive in time order across all points, as every tool's
// clock reads them: that is what lets a matcher drop b-samples no later
// a-sample can pair with.
type Analysis struct {
	hs      HistogramSet
	last    [NumPoints]Sample
	seen    [NumPoints]bool
	now     sim.Time // the latest sample's time
	pairs   [NumPoints - 1]matcher
	flushed bool
}

// NewAnalysis returns an empty analysis whose histograms have the given
// bin width in microseconds.
func NewAnalysis(binWidth float64) *Analysis {
	a := &Analysis{}
	for id := range a.hs.H {
		a.hs.H[id] = stats.NewHistogram(binWidth, histLabels[id])
	}
	for i := range a.pairs {
		a.pairs[i].h = a.hs.H[H5IRQToEntry+HistogramID(i)]
	}
	return a
}

// Add implements Sink. Point p's inter-occurrence goes to histogram p+1,
// and the sample joins the pairs (p−1, p) as a b-sample and (p, p+1) as
// an a-sample.
func (a *Analysis) Add(p Point, s Sample) {
	if a.flushed || s.T < a.now {
		sim.Checkf(false, "measure: %v sample at %v after the analysis at %v (flushed %t)", p, s.T, a.now, a.flushed)
	}
	a.now = s.T
	if a.seen[p] {
		a.hs.H[p].Add((s.T - a.last[p].T).Microseconds())
	}
	a.last[p], a.seen[p] = s, true
	if p > P1VCAIRQ {
		a.pairs[p-1].addB(s)
	}
	if p < P4RxClassified {
		a.pairs[p].addA(s)
	}
}

// Finish settles the a-samples still waiting for a partner, which no
// b-sample will now arrive for, and returns the histograms. Nothing may be
// added after it.
func (a *Analysis) Finish() *HistogramSet {
	if !a.flushed {
		for i := range a.pairs {
			a.pairs[i].decide(a.now, true)
		}
		a.flushed = true
	}
	return &a.hs
}

// matcher builds the b−a delta histogram of samples describing the same
// packet (histograms 5–7). Packet numbers may be truncated to 7 bits by
// the PC/AT tool, so an a-sample pairs with the first b-sample at or
// after it with the same low 7 bits, searching on from the b-sample after
// the previous pairing, the way the original analysis programs had to.
//
// It decides the waiting a-samples in order. The oldest pairs as soon as
// its partner arrives, gives up once matchWindow b-samples have failed
// it or once it is more than matchedDeltaMax older than the latest
// sample (any partner still to come is too late to pair), and otherwise
// waits. So a matcher holds about one window of b-samples and at most
// matchedDeltaMax of a-samples, never a whole run.
type matcher struct {
	h  *stats.Histogram
	as fifo // a-samples not yet decided, oldest first
	// The oldest a-sample's search starts at the b-sample after the last
	// pairing. The first dead of those precede every a-sample still to be
	// decided, so they cannot pair and are kept only as a count; bs holds
	// the rest.
	dead int
	bs   fifo
	scan int // search positions the oldest a-sample has already ruled out
}

func (m *matcher) addA(s Sample) {
	m.as.push(s)
	m.decide(s.T, false)
}

func (m *matcher) addB(s Sample) {
	m.bs.push(s)
	m.decide(s.T, false)
}

// decide settles the waiting a-samples it can, oldest first; final means
// no b-sample will arrive, so an a-sample still short of a partner gives
// up. now is the latest sample's time, which no later sample precedes.
func (m *matcher) decide(now sim.Time, final bool) {
	for m.as.len() > 0 {
		a := m.as.at(0)
		m.fold(a.T)
		o := max(m.scan, m.dead)
		for o < matchWindow && o-m.dead < m.bs.len() {
			if b := m.bs.at(o - m.dead); b.T >= a.T && b.Num&0x7F == a.Num&0x7F {
				break
			}
			o++
		}
		switch {
		case o >= matchWindow:
			// Gave up: the next a-sample searches from the same b-sample.
		case o-m.dead < m.bs.len():
			b := m.bs.at(o - m.dead)
			if d := (b.T - a.T).Microseconds(); d <= matchedDeltaMax {
				m.h.Add(d)
				m.bs.drop(o - m.dead + 1)
				m.dead = 0
			}
		case !final && (now-a.T).Microseconds() <= matchedDeltaMax:
			m.scan = o
			return
		}
		m.as.drop(1)
		m.scan = 0
	}
	m.fold(now)
}

// fold counts the b-samples earlier than t as dead: every a-sample still
// to be decided is at t or later.
func (m *matcher) fold(t sim.Time) {
	for m.bs.len() > 0 && m.bs.at(0).T < t {
		m.bs.drop(1)
		m.dead++
	}
}

// fifo is a queue of samples that reuses its array: a queue that stays
// short never reallocates.
type fifo struct {
	s   []Sample
	off int
}

func (f *fifo) len() int        { return len(f.s) - f.off }
func (f *fifo) at(i int) Sample { return f.s[f.off+i] }

func (f *fifo) push(x Sample) {
	if len(f.s) == cap(f.s) && f.off > 0 {
		f.s = f.s[:copy(f.s, f.s[f.off:])]
		f.off = 0
	}
	f.s = append(f.s, x)
}

func (f *fifo) drop(n int) {
	f.off += n
	if f.off == len(f.s) {
		f.s, f.off = f.s[:0], 0
	}
}

var _ Recorder = (*LogicAnalyzer)(nil)
var _ Recorder = (*PseudoDev)(nil)
var _ Recorder = (*PCAT)(nil)
var _ Sink = (*Analysis)(nil)
