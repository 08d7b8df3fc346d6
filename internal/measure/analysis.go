package measure

import "repro/internal/stats"

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

// InterOccurrence builds a histogram of consecutive deltas of one point's
// samples (histograms 1–4). binWidth is in microseconds.
func InterOccurrence(samples []Sample, binWidth float64, label string) *stats.Histogram {
	h := stats.NewHistogram(binWidth, label)
	for i := 1; i < len(samples); i++ {
		h.Add((samples[i].T - samples[i-1].T).Microseconds())
	}
	return h
}

// matchedDeltaMax bounds a plausible pairing: with 7-bit packet numbers a
// pairing more than this far apart is a wrap artifact, not a measurement.
const matchedDeltaMax = 2e6 // µs

// MatchedDelta builds a histogram of b−a deltas for samples describing
// the same packet (histograms 5–7). Packet numbers may be truncated to 7
// bits by the PC/AT tool, so matching is done on the low 7 bits with a
// sliding window, the way the original analysis programs had to.
func MatchedDelta(a, b []Sample, binWidth float64, label string) *stats.Histogram {
	h := stats.NewHistogram(binWidth, label)
	j := 0
	for _, sa := range a {
		// Advance j to the first b sample at or after sa that matches
		// the 7-bit number.
		k := j
		for k < len(b) && (b[k].T < sa.T || b[k].Num&0x7F != sa.Num&0x7F) {
			k++
			// Give up if we have drifted more than half the 7-bit
			// wrap (≈64 packets) past the candidate window.
			if k-j > 64 {
				k = -1
				break
			}
		}
		if k < 0 || k >= len(b) {
			continue
		}
		if d := (b[k].T - sa.T).Microseconds(); d <= matchedDeltaMax {
			h.Add(d)
			j = k + 1
		}
	}
	return h
}

// HistogramSet holds the seven histograms for one test run.
type HistogramSet struct {
	H [NumHistograms]*stats.Histogram
}

// BuildHistograms assembles all seven §5.3 histograms from a recorder's
// samples. Points the tool cannot see produce empty histograms.
func BuildHistograms(rec Recorder, binWidth float64) *HistogramSet {
	s := rec.Samples()
	p1, p2, p3, p4 := s[P1VCAIRQ], s[P2HandlerEntry], s[P3PreTransmit], s[P4RxClassified]

	hs := &HistogramSet{}
	hs.H[H1InterIRQ] = InterOccurrence(p1, binWidth, histLabels[H1InterIRQ])
	hs.H[H2InterEntry] = InterOccurrence(p2, binWidth, histLabels[H2InterEntry])
	hs.H[H3InterPreTransmit] = InterOccurrence(p3, binWidth, histLabels[H3InterPreTransmit])
	hs.H[H4InterRxClassified] = InterOccurrence(p4, binWidth, histLabels[H4InterRxClassified])
	hs.H[H5IRQToEntry] = MatchedDelta(p1, p2, binWidth, histLabels[H5IRQToEntry])
	hs.H[H6EntryToPreTransmit] = MatchedDelta(p2, p3, binWidth, histLabels[H6EntryToPreTransmit])
	hs.H[H7TxToRx] = MatchedDelta(p3, p4, binWidth, histLabels[H7TxToRx])
	return hs
}

var _ Recorder = (*LogicAnalyzer)(nil)
var _ Recorder = (*PseudoDev)(nil)
var _ Recorder = (*PCAT)(nil)
