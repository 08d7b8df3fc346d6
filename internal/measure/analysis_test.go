package measure

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The batch analysis below is the reference the streaming Analysis must
// reproduce bit for bit: it builds the seven histograms from whole
// per-point logs, as the §5.3 analysis programs did from the saved
// streams.

// batchInterOccurrence builds a histogram of consecutive deltas of one
// point's samples (histograms 1–4).
func batchInterOccurrence(samples []Sample, binWidth float64, label string) *stats.Histogram {
	h := stats.NewHistogram(binWidth, label)
	for i := 1; i < len(samples); i++ {
		h.Add((samples[i].T - samples[i-1].T).Microseconds())
	}
	return h
}

// batchMatchedDelta builds a histogram of b−a deltas for samples
// describing the same packet (histograms 5–7), matching on the low 7 bits
// with a sliding window.
func batchMatchedDelta(a, b []Sample, binWidth float64, label string) *stats.Histogram {
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

// batchHistograms assembles all seven histograms from per-point logs.
func batchHistograms(s [NumPoints][]Sample, binWidth float64) *HistogramSet {
	p1, p2, p3, p4 := s[P1VCAIRQ], s[P2HandlerEntry], s[P3PreTransmit], s[P4RxClassified]
	hs := &HistogramSet{}
	hs.H[H1InterIRQ] = batchInterOccurrence(p1, binWidth, histLabels[H1InterIRQ])
	hs.H[H2InterEntry] = batchInterOccurrence(p2, binWidth, histLabels[H2InterEntry])
	hs.H[H3InterPreTransmit] = batchInterOccurrence(p3, binWidth, histLabels[H3InterPreTransmit])
	hs.H[H4InterRxClassified] = batchInterOccurrence(p4, binWidth, histLabels[H4InterRxClassified])
	hs.H[H5IRQToEntry] = batchMatchedDelta(p1, p2, binWidth, histLabels[H5IRQToEntry])
	hs.H[H6EntryToPreTransmit] = batchMatchedDelta(p2, p3, binWidth, histLabels[H6EntryToPreTransmit])
	hs.H[H7TxToRx] = batchMatchedDelta(p3, p4, binWidth, histLabels[H7TxToRx])
	return hs
}

// event is one sample on its way to a sink.
type event struct {
	p Point
	s Sample
}

// randomLogs draws four per-point sample streams, each in time order, that
// exercise every branch of the matching rule: 7-bit number wraps, dropped
// samples, b-samples timed before their a-sample, outages and junk numbers
// longer than the 64-sample window, deltas past matchedDeltaMax, blind
// points and timestamp ties.
func randomLogs(rng *rand.Rand) [NumPoints][]Sample {
	var logs [NumPoints][]Sample
	n := rng.Intn(400)
	period := sim.Time(1+rng.Intn(20)) * sim.Millisecond
	quantum := []sim.Time{1, 2 * sim.Microsecond, 122 * sim.Microsecond, sim.Millisecond}[rng.Intn(4)]
	mask := ^uint32(0)
	if rng.Intn(2) == 0 {
		mask = 0x7F
	}
	drop := rng.Float64() * 0.3
	for p := P1VCAIRQ; p < NumPoints; p++ {
		if rng.Intn(10) == 0 {
			continue // a point the tool cannot see
		}
		offset := sim.Time(rng.Intn(30)) * sim.Millisecond
		jitter := 1 + rng.Int63n(int64(3*period))
		outageAt, outageLen := rng.Intn(n+1), 0
		if rng.Intn(3) == 0 {
			outageLen = 65 + rng.Intn(80)
		}
		var s []Sample
		for i := 0; i < n; i++ {
			if rng.Float64() < drop || (i >= outageAt && i < outageAt+outageLen) {
				continue
			}
			num := uint32(i)
			if rng.Intn(20) == 0 {
				num = rng.Uint32() // junk
			}
			t := sim.Time(i)*period + offset + sim.Time(rng.Int63n(jitter))
			if rng.Intn(100) == 0 {
				t += 2500 * sim.Millisecond // past matchedDeltaMax
			}
			s = append(s, Sample{Num: num & mask, T: t / quantum * quantum})
		}
		slices.SortStableFunc(s, func(a, b Sample) int { return int(a.T - b.T) })
		logs[p] = s
	}
	return logs
}

// interleave merges per-point logs into one time-ordered stream, breaking
// ties between points at random, so each point keeps its own order.
func interleave(rng *rand.Rand, logs [NumPoints][]Sample) []event {
	var out []event
	var next [NumPoints]int
	for {
		var cands []Point
		for p := range logs {
			if next[p] == len(logs[p]) {
				continue
			}
			switch t := logs[p][next[p]].T; {
			case len(cands) == 0 || t < logs[cands[0]][next[cands[0]]].T:
				cands = append(cands[:0], Point(p))
			case t == logs[cands[0]][next[cands[0]]].T:
				cands = append(cands, Point(p))
			}
		}
		if len(cands) == 0 {
			return out
		}
		p := cands[rng.Intn(len(cands))]
		out = append(out, event{p, logs[p][next[p]]})
		next[p]++
	}
}

func sameHistogram(t *testing.T, seed int64, got, want *stats.Histogram) {
	t.Helper()
	bits := math.Float64bits
	if got.Label != want.Label || got.N() != want.N() || bits(got.Mean()) != bits(want.Mean()) ||
		bits(got.Var()) != bits(want.Var()) || bits(got.Min()) != bits(want.Min()) || bits(got.Max()) != bits(want.Max()) {
		t.Fatalf("seed %d %s: streamed n=%d mean=%v var=%v [%v, %v], batch n=%d mean=%v var=%v [%v, %v]",
			seed, want.Label, got.N(), got.Mean(), got.Var(), got.Min(), got.Max(),
			want.N(), want.Mean(), want.Var(), want.Min(), want.Max())
	}
	gs, ws := got.Samples(), want.Samples()
	slices.Sort(gs)
	slices.Sort(ws)
	if !slices.Equal(gs, ws) || !slices.Equal(got.Bins(), want.Bins()) {
		t.Fatalf("seed %d %s: streamed samples or bins differ from batch", seed, want.Label)
	}
}

// The streamed analysis equals the batch analysis over the same logs, bit
// for bit, whatever the interleaving of the points.
func TestAnalysisMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		logs := randomLogs(rng)
		binWidth := float64(1 + rng.Intn(500))
		an := NewAnalysis(binWidth)
		for _, e := range interleave(rng, logs) {
			an.Add(e.p, e.s)
		}
		got, want := an.Finish(), batchHistograms(logs, binWidth)
		for id := range want.H {
			sameHistogram(t, seed, got.H[id], want.H[id])
		}
	}
}

// On a well-formed stream — every packet through all four points, point b
// trailing point a by up to lag packets, isolated losses — a matcher holds
// at most one window of b-samples and the a-samples behind one lost
// packet. A point the tool cannot see leaves its pair holding nothing,
// and a point with no partner at all leaves its pair holding at most
// matchedDeltaMax of a-samples.
func TestAnalysisHoldsOneWindow(t *testing.T) {
	for _, lag := range []int{0, 1, 3, 10} {
		for _, blind := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(lag)))
			const period = 12 * sim.Millisecond
			var logs [NumPoints][]Sample
			for i := 0; i < 3000; i++ {
				base := sim.Time(i) * period
				for p, at := range [NumPoints]sim.Time{base, base + 40*sim.Microsecond, base + 2640*sim.Microsecond,
					base + sim.Time(lag)*period + 5*sim.Millisecond} {
					if (blind && Point(p) == P1VCAIRQ) || (Point(p) == P4RxClassified && i%97 == 13) {
						continue
					}
					logs[p] = append(logs[p], Sample{Num: uint32(i) & 0x7F, T: at})
				}
			}
			an := NewAnalysis(100)
			for _, e := range interleave(rng, logs) {
				an.Add(e.p, e.s)
				for i := range an.pairs {
					m := &an.pairs[i]
					if m.as.len() > matchWindow+lag+1 || m.bs.len() > matchWindow {
						t.Fatalf("lag %d: pair %d holds %d a-samples and %d b-samples", lag, i, m.as.len(), m.bs.len())
					}
					if blind && i == 0 && m.bs.len() > 1 {
						t.Fatalf("lag %d: the blind pair holds %d b-samples", lag, m.bs.len())
					}
				}
			}
			got, want := an.Finish(), batchHistograms(logs, 100)
			for id := range want.H {
				sameHistogram(t, int64(lag), got.H[id], want.H[id])
			}
			if n := got.H[H7TxToRx].N(); n != uint64(len(logs[P4RxClassified])) {
				t.Fatalf("lag %d: H7 paired %d of %d delivered packets", lag, n, len(logs[P4RxClassified]))
			}
		}
	}
	// P1 alone, as in the tool-validation runs: no b-sample ever arrives,
	// so each a-sample is given up once it is more than matchedDeltaMax
	// older than the latest pulse — about 2 s, 168 pulses at 12 ms.
	var logs [NumPoints][]Sample
	an := NewAnalysis(100)
	for i := 0; i < 20000; i++ {
		s := Sample{Num: uint32(i) & 0x7F, T: sim.Time(i) * 12 * sim.Millisecond}
		logs[P1VCAIRQ] = append(logs[P1VCAIRQ], s)
		an.Add(P1VCAIRQ, s)
		if n := an.pairs[0].as.len(); n > 168 {
			t.Fatalf("P1 only: after pulse %d the matcher holds %d a-samples", i, n)
		}
	}
	got, want := an.Finish(), batchHistograms(logs, 100)
	for id := range want.H {
		sameHistogram(t, 0, got.H[id], want.H[id])
	}
}

// Samples must arrive in time order: that is what lets a matcher drop the
// b-samples no later a-sample can pair with.
func TestAnalysisRejectsSamplesOutOfOrder(t *testing.T) {
	an := NewAnalysis(100)
	an.Add(P2HandlerEntry, Sample{T: 10 * sim.Millisecond})
	defer func() {
		if recover() == nil {
			t.Fatal("a sample earlier than the previous one was accepted")
		}
	}()
	an.Add(P1VCAIRQ, Sample{T: 9 * sim.Millisecond})
}
