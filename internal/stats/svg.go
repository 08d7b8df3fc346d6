package stats

import (
	"fmt"
	"math"
	"strings"
)

// SVGOptions controls figure rendering.
type SVGOptions struct {
	Width, Height int
	// ClipHi sends samples above this (µs) to an annotated overflow note.
	ClipHi float64
	// LogY uses a log-scaled count axis, which is how the tails of the
	// paper's figures stay visible.
	LogY bool
	// Title overrides the histogram label.
	Title string
}

// SVG renders the histogram as a standalone SVG document in the style of
// the paper's figures: counts against microseconds.
func (h *Histogram) SVG(opts SVGOptions) string {
	if opts.Width <= 0 {
		opts.Width = 720
	}
	if opts.Height <= 0 {
		opts.Height = 400
	}
	title := opts.Title
	if title == "" {
		title = h.Label
	}

	const (
		padL = 70
		padR = 20
		padT = 40
		padB = 50
	)
	plotW := float64(opts.Width - padL - padR)
	plotH := float64(opts.Height - padT - padB)

	_, bins := h.binCounts()
	bins, overflow := clipBins(bins, opts.ClipHi)

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		opts.Width, opts.Height, opts.Width, opts.Height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	fmt.Fprintf(&sb, `<text x="%d" y="24" font-family="sans-serif" font-size="15">%s</text>`,
		padL, xmlEscape(title))

	if len(bins) == 0 {
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="13">(no samples)</text>`,
			padL, padT+30)
		sb.WriteString(`</svg>`)
		return sb.String()
	}

	lo, hi := bins[0].Lo, bins[len(bins)-1].Hi
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	var peak uint64 = 1
	for _, b := range bins {
		if b.Count > peak {
			peak = b.Count
		}
	}
	yOf := func(count uint64) float64 {
		if count == 0 {
			return 0
		}
		if !opts.LogY {
			return float64(count) / float64(peak)
		}
		return math.Log1p(float64(count)) / math.Log1p(float64(peak))
	}

	// Axes.
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		padL, opts.Height-padB, opts.Width-padR, opts.Height-padB)
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		padL, padT, padL, opts.Height-padB)

	// X ticks: ~6 round values.
	step := niceStep(span / 6)
	for x := math.Ceil(lo/step) * step; x <= hi; x += step {
		px := padL + int((x-lo)/span*plotW)
		fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
			px, opts.Height-padB, px, opts.Height-padB+5)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%.0f</text>`,
			px, opts.Height-padB+18, x)
	}
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">microseconds</text>`,
		padL+int(plotW/2), opts.Height-10)

	// Y axis label.
	fmt.Fprintf(&sb, `<text x="16" y="%d" font-family="sans-serif" font-size="12" transform="rotate(-90 16 %d)">count%s</text>`,
		padT+int(plotH/2), padT+int(plotH/2), map[bool]string{true: " (log)", false: ""}[opts.LogY])

	// Bars.
	for _, b := range bins {
		if b.Count == 0 {
			continue
		}
		x0 := padL + int((b.Lo-lo)/span*plotW)
		x1 := padL + int((b.Hi-lo)/span*plotW)
		w := x1 - x0
		if w < 1 {
			w = 1
		}
		bh := int(yOf(b.Count) * plotH)
		if bh < 1 {
			bh = 1
		}
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%d" height="%d" fill="#4477aa"><title>[%.0f, %.0f) µs: %d</title></rect>`,
			x0, opts.Height-padB-bh, w, bh, b.Lo, b.Hi, b.Count)
	}

	// Stats annotation.
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="monospace" font-size="11" text-anchor="end">n=%d mean=%.0f sd=%.0f min=%.0f max=%.0f</text>`,
		opts.Width-padR, padT-8, h.N(), h.Mean(), h.Stddev(), h.Min(), h.Max())
	if overflow > 0 {
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="monospace" font-size="11" text-anchor="end">+%d samples &gt; %.0f µs</text>`,
			opts.Width-padR, padT+8, overflow, opts.ClipHi)
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}

// niceStep rounds a raw step to 1/2/5 × 10^k.
func niceStep(raw float64) float64 {
	if raw <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	for _, m := range []float64{1, 2, 5, 10} {
		if raw <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
