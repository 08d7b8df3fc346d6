package stats

import (
	"fmt"
	"sort"
	"strings"
)

// RenderOptions controls ASCII histogram rendering.
type RenderOptions struct {
	Width    int     // bar width in characters (default 60)
	MaxBins  int     // coalesce to at most this many rows (default 40)
	ClipHi   float64 // samples above this go to an overflow row (0 = none)
	LogScale bool    // scale bars by log count, which makes tails visible
}

// Render draws the histogram as rows of '#' bars, in the spirit of the
// paper's Figures 5-2 through 5-4.
func (h *Histogram) Render(opts RenderOptions) string {
	if opts.Width <= 0 {
		opts.Width = 60
	}
	if opts.MaxBins <= 0 {
		opts.MaxBins = 40
	}
	_, bins := h.binCounts()
	if len(bins) == 0 {
		return h.Label + ": (no samples)\n"
	}

	bins, overflow := clipBins(bins, opts.ClipHi)
	if len(bins) == 0 {
		return fmt.Sprintf("%s: all %d samples above clip %.0fµs\n", h.Label, overflow, opts.ClipHi)
	}

	// Coalesce adjacent bins so the rendering fits in MaxBins rows.
	lo, hi := bins[0].Lo, bins[len(bins)-1].Hi
	span := hi - lo
	rowWidth := h.BinWidth
	for span/rowWidth > float64(opts.MaxBins) {
		rowWidth *= 2
	}
	nRows := int(span/rowWidth) + 1
	rows := make([]uint64, nRows)
	for _, b := range bins {
		i := int((b.Lo - lo) / rowWidth)
		if i >= nRows {
			i = nRows - 1
		}
		rows[i] += b.Count
	}

	var peak uint64
	for _, c := range rows {
		if c > peak {
			peak = c
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (n=%d, mean=%.0fµs, sd=%.0fµs, min=%.0fµs, max=%.0fµs)\n",
		h.Label, h.N(), h.Mean(), h.Stddev(), h.Min(), h.Max())
	for i, c := range rows {
		rlo := lo + float64(i)*rowWidth
		bar := barLen(c, peak, opts.Width, opts.LogScale)
		fmt.Fprintf(&sb, "%10.0f µs |%-*s| %d\n", rlo, opts.Width, strings.Repeat("#", bar), c)
	}
	if overflow > 0 {
		fmt.Fprintf(&sb, "%10s    > %.0f µs: %d samples\n", "", opts.ClipHi, overflow)
	}
	return sb.String()
}

// clipBins splits ascending bins at clipHi (0 = no clip): it returns the
// bins below it, a prefix of bins, and the count of the samples in the rest.
func clipBins(bins []Bin, clipHi float64) (kept []Bin, overflow uint64) {
	if clipHi <= 0 {
		return bins, 0
	}
	i := sort.Search(len(bins), func(i int) bool { return bins[i].Lo >= clipHi })
	for _, b := range bins[i:] {
		overflow += b.Count
	}
	return bins[:i], overflow
}

func barLen(c, peak uint64, width int, logScale bool) int {
	if c == 0 || peak == 0 {
		return 0
	}
	if !logScale {
		n := int(float64(c) / float64(peak) * float64(width))
		if n == 0 {
			n = 1 // never hide a non-empty row
		}
		return n
	}
	// log scale: 1 sample = 1 char, peak = full width
	lp := log2u(peak)
	if lp == 0 {
		return width
	}
	n := int(float64(log2u(c)) / float64(lp) * float64(width))
	if n == 0 {
		n = 1
	}
	return n
}

func log2u(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
