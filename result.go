package ctms

import (
	"time"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/stats"
)

// Bin is one histogram bin: [LoMicros, HiMicros) holding Count samples.
type Bin struct {
	LoMicros, HiMicros float64
	Count              uint64
}

// Histogram is the public view of one of the seven §5.3 measurements.
type Histogram struct {
	Name        string
	N           uint64
	MeanMicros  float64
	StdMicros   float64
	MinMicros   float64
	MaxMicros   float64
	ModeMicros  float64
	PeaksMicros []float64 // local maxima holding ≥1% of samples
	Bins        []Bin
	// Rendered is an ASCII drawing in the style of the paper's figures.
	Rendered string

	src *stats.Histogram
}

// FractionWithin reports the fraction of samples x with lo ≤ x ≤ hi, in
// microseconds — the form in which the paper states every result.
func (h *Histogram) FractionWithin(loMicros, hiMicros float64) float64 {
	if h.src == nil {
		return 0
	}
	return h.src.FractionWithin(loMicros, hiMicros)
}

// QuantileMicros reports the q-th quantile (0..1) in microseconds.
func (h *Histogram) QuantileMicros(q float64) float64 {
	if h.src == nil {
		return 0
	}
	return h.src.Quantile(q)
}

// Result is everything one experiment produced.
type Result struct {
	Name    string
	Elapsed time.Duration

	// Stream accounting.
	Sent       uint64
	Delivered  uint64
	Lost       uint64
	Duplicates uint64
	Reordered  uint64
	Gaps       uint64

	// Presentation-side behaviour (§6's buffer-sizing conclusion).
	Glitches       uint64
	StarvedTime    time.Duration
	MaxBufferBytes int

	// ThroughputBytesPerSec is the delivered stream rate.
	ThroughputBytesPerSec float64

	// Histograms as recorded by the configured tool, indexed by the
	// Hist* constants; Truth is the logic analyzer's exact view. When the
	// logic analyzer is the configured tool, the two arrays hold the same
	// *Histogram values.
	Histograms [NumHistograms]*Histogram
	Truth      [NumHistograms]*Histogram

	// Substrate accounting.
	RingUtilization float64
	RingPurges      uint64
	RingInsertions  uint64
	PurgeLostFrames uint64
	TxCPUUtil       float64
	RxCPUUtil       float64

	// §2 copy accounting for this configuration.
	CPUCopies  int
	DMACopies  int
	TotalMoves int

	// Report is a preformatted human-readable summary.
	Report string
}

// DeliveredFraction reports Delivered/Sent.
func (r *Result) DeliveredFraction() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Sent)
}

func histFrom(h *stats.Histogram) *Histogram {
	if h == nil {
		return &Histogram{}
	}
	out := &Histogram{
		Name:        h.Label,
		N:           h.N(),
		MeanMicros:  h.Mean(),
		StdMicros:   h.Stddev(),
		MinMicros:   h.Min(),
		MaxMicros:   h.Max(),
		ModeMicros:  h.Mode(),
		PeaksMicros: h.Peaks(0.01),
		Rendered:    h.Render(stats.RenderOptions{Width: 60, ClipHi: 45000}),
		src:         h,
	}
	for _, b := range h.Bins() {
		out.Bins = append(out.Bins, Bin{LoMicros: b.Lo, HiMicros: b.Hi, Count: b.Count})
	}
	return out
}

func resultFrom(res *core.Results) *Result {
	r := &Result{
		Name:                  res.Config.Name,
		Elapsed:               res.Elapsed.Std(),
		Sent:                  res.Sent,
		Delivered:             res.Delivered,
		Lost:                  res.RxStats.Lost,
		Duplicates:            res.RxStats.Duplicates,
		Reordered:             res.RxStats.Reordered,
		Gaps:                  res.RxStats.Gaps,
		Glitches:              res.Playout.Glitches,
		StarvedTime:           res.Playout.StarvedTime.Std(),
		MaxBufferBytes:        res.Playout.MaxBufferBytes,
		ThroughputBytesPerSec: res.Throughput(),
		RingUtilization:       float64(res.Ring.BusyTime) / float64(res.Elapsed),
		RingPurges:            res.Ring.PurgeCount,
		RingInsertions:        res.Ring.InsertionSeen,
		PurgeLostFrames:       res.Ring.PurgeLost,
		TxCPUUtil:             res.TxCPUUtil,
		RxCPUUtil:             res.RxCPUUtil,
		CPUCopies:             res.Copies.CPUCopies(),
		DMACopies:             res.Copies.DMACopies(),
		TotalMoves:            res.Copies.Total(),
		Report:                res.Report(),
	}
	// With the logic analyzer as the tool, Hists is the Truth set itself:
	// convert each distinct histogram once.
	for id := measure.H1InterIRQ; id < measure.NumHistograms; id++ {
		r.Truth[id] = histFrom(res.Truth.H[id])
		if h := res.Hists.H[id]; h == res.Truth.H[id] {
			r.Histograms[id] = r.Truth[id]
		} else {
			r.Histograms[id] = histFrom(h)
		}
	}
	return r
}
