package stats

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(100, "test")
	for _, x := range []float64{0, 50, 99.9, 100, 150, 250} {
		h.Add(x)
	}
	bins := h.Bins()
	if len(bins) != 3 {
		t.Fatalf("want 3 bins, got %d: %+v", len(bins), bins)
	}
	if bins[0].Count != 3 || bins[1].Count != 2 || bins[2].Count != 1 {
		t.Fatalf("bin counts wrong: %+v", bins)
	}
	if bins[0].Lo != 0 || bins[0].Hi != 100 {
		t.Fatalf("bin bounds wrong: %+v", bins[0])
	}
}

func TestHistogramNegativeValues(t *testing.T) {
	h := NewHistogram(10, "neg")
	h.Add(-5)
	h.Add(-15)
	bins := h.Bins()
	if len(bins) != 2 {
		t.Fatalf("want 2 bins, got %+v", bins)
	}
	if bins[0].Lo != -20 || bins[1].Lo != -10 {
		t.Fatalf("negative binning must floor: %+v", bins)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, "q")
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if q := h.Quantile(0.5); q < 50 || q > 52 {
		t.Fatalf("median: got %v", q)
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 100 {
		t.Fatalf("extreme quantiles: %v, %v", h.Quantile(0), h.Quantile(1))
	}
}

func TestFractionWithin(t *testing.T) {
	h := NewHistogram(100, "f")
	// 68 samples at 2600, 15 at 9400, 17 spread between — the Figure 5-2 shape.
	for i := 0; i < 68; i++ {
		h.Add(2600)
	}
	for i := 0; i < 15; i++ {
		h.Add(9400)
	}
	for i := 0; i < 17; i++ {
		h.Add(3200 + float64(i)*330)
	}
	if f := h.FractionNear(2600, 500); !almostEq(f, 0.68, 0.001) {
		t.Fatalf("fraction near 2600: got %v", f)
	}
	if f := h.FractionNear(9400, 500); f < 0.15 {
		t.Fatalf("fraction near 9400: got %v", f)
	}
	if got := h.CountWithin(9400, 9400); got != 15 {
		t.Fatalf("CountWithin exact: got %d", got)
	}
}

func TestHistogramPeaksBimodal(t *testing.T) {
	h := NewHistogram(200, "bimodal")
	for i := 0; i < 680; i++ {
		h.Add(2600 + float64(i%5)*10)
	}
	for i := 0; i < 150; i++ {
		h.Add(9400 + float64(i%5)*10)
	}
	for i := 0; i < 165; i++ {
		h.Add(3000 + float64(i)*38) // thin spread between
	}
	peaks := h.Peaks(0.02)
	if len(peaks) < 2 {
		t.Fatalf("bimodal histogram should show ≥2 peaks, got %v", peaks)
	}
	if peaks[0] > 3200 || peaks[len(peaks)-1] < 9000 {
		t.Fatalf("peaks misplaced: %v", peaks)
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram(10, "m")
	for i := 0; i < 5; i++ {
		h.Add(105)
	}
	h.Add(55)
	if m := h.Mode(); m != 105 {
		t.Fatalf("mode: got %v", m)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(100, "render")
	for i := 0; i < 100; i++ {
		h.Add(float64(i * 17 % 1000))
	}
	out := h.Render(RenderOptions{Width: 30})
	if !strings.Contains(out, "render") || !strings.Contains(out, "#") {
		t.Fatalf("render output malformed:\n%s", out)
	}
	// Log-scale rendering must also work and show every non-empty row.
	out = h.Render(RenderOptions{Width: 30, LogScale: true})
	if !strings.Contains(out, "#") {
		t.Fatal("log-scale render empty")
	}
}

func TestHistogramRenderClip(t *testing.T) {
	h := NewHistogram(100, "clip")
	for i := 0; i < 50; i++ {
		h.Add(100)
	}
	h.Add(125000) // a 120-130 ms outlier
	out := h.Render(RenderOptions{Width: 30, ClipHi: 20000})
	if !strings.Contains(out, "> 20000") {
		t.Fatalf("overflow row missing:\n%s", out)
	}
	if strings.Count(out, "\n") > 10 {
		t.Fatalf("clipping should keep output small:\n%s", out)
	}
}

// Clipping in Render and SVG drops bins from the drawing only, and Bins
// hands out a copy: Bins still returns every bin, as counted, afterwards.
func TestHistogramClipKeepsBins(t *testing.T) {
	h := NewHistogram(100, "clip")
	for i := 0; i < 50; i++ {
		h.Add(float64(i * 40))
	}
	want := slices.Clone(h.Bins())
	h.Bins()[0].Count++
	out := h.Render(RenderOptions{Width: 30, ClipHi: 1000})
	if !strings.Contains(out, "> 1000") {
		t.Fatalf("Render dropped no bins:\n%s", out)
	}
	if got := h.Bins(); !slices.Equal(got, want) {
		t.Fatalf("Bins after Render: %v, want %v", got, want)
	}
	if svg := h.SVG(SVGOptions{ClipHi: 500}); !strings.Contains(svg, "&gt; 500 µs") {
		t.Fatalf("SVG dropped no bins:\n%s", svg)
	}
	if got := h.Bins(); !slices.Equal(got, want) {
		t.Fatalf("Bins after SVG: %v, want %v", got, want)
	}
}

// The bins are counted once: a second Mode reads them without allocating.
func TestHistogramModeReusesBins(t *testing.T) {
	h := NewHistogram(10, "m")
	for i := 0; i < 1000; i++ {
		h.Add(float64(i * 7 % 300))
	}
	h.Mode()
	if allocs := testing.AllocsPerRun(100, func() { h.Mode() }); allocs != 0 {
		t.Fatalf("Mode allocated %v times on a binned histogram, want 0", allocs)
	}
}

func TestHistogramRenderEmpty(t *testing.T) {
	h := NewHistogram(10, "empty")
	if !strings.Contains(h.Render(RenderOptions{}), "no samples") {
		t.Fatal("empty render should say so")
	}
}

// Property: bin counts always sum to N, and every sample lands in the bin
// covering it.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(xs []float32) bool {
		h := NewHistogram(50, "p")
		for _, x := range xs {
			h.Add(float64(x))
		}
		var total uint64
		for _, b := range h.Bins() {
			total += b.Count
		}
		return total == h.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Bins and Mode agree with a per-sample count of each bin index
// (the lowest index among the fullest bins for Mode), whatever the
// insertion order and sign of the samples. Bin queries between the Adds
// must not leave the later ones reading stale bins.
func TestHistogramBinsMatchPerSampleCount(t *testing.T) {
	check := func(width float64, xs []float64) bool {
		h := NewHistogram(width, "p")
		count := map[int64]uint64{}
		for i, x := range xs {
			h.Add(x)
			count[h.binOf(x)]++
			switch i % 4 {
			case 0:
				h.Bins()
			case 1:
				h.Mode()
			case 2:
				h.Peaks(0.01)
			}
		}
		keys := make([]int64, 0, len(count))
		for k := range count {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		bins := h.Bins()
		if len(bins) != len(keys) {
			return false
		}
		var best int64
		var bestCount uint64
		for i, k := range keys {
			want := Bin{Lo: float64(k) * h.BinWidth, Hi: float64(k+1) * h.BinWidth, Count: count[k]}
			if bins[i] != want {
				return false
			}
			if want.Count > bestCount {
				best, bestCount = k, want.Count
			}
		}
		if bestCount == 0 {
			return h.Mode() == 0
		}
		return h.Mode() == (float64(best)+0.5)*h.BinWidth
	}
	// Float rounding bins -5.7 at index -19 but the larger
	// -5.699999999999999 at -20, so sorted samples can step a bin back.
	if !check(0.3, []float64{-5.699999999999999, -5.7, -5.699999999999999, -5.8}) {
		t.Fatal("a sample rounded one bin low is miscounted")
	}
	// A spread of bins narrower than 4× the sample count is counted in a
	// dense slice, a wider one in a map.
	if !check(10, []float64{3, 14, 15, 92, 65, 35, 89, 79, 32, 38, -4}) {
		t.Fatal("densely counted bins are wrong")
	}
	if !check(1, []float64{-1e12, 0, 7, 7, 1e12}) {
		t.Fatal("sparsely counted bins are wrong")
	}
	f := func(xs []int16, width uint8) bool {
		vs := make([]float64, len(xs))
		for i, x := range xs {
			vs[i] = float64(x) / 8
		}
		return check(float64(width%97)+0.3, vs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: FractionWithin over the full range is 1; quantiles are ordered.
func TestHistogramFractionProperty(t *testing.T) {
	f := func(xs []float32) bool {
		if len(xs) == 0 {
			return true
		}
		h := NewHistogram(25, "p2")
		for _, x := range xs {
			h.Add(float64(x))
		}
		if !almostEq(h.FractionWithin(h.Min(), h.Max()), 1, 1e-12) {
			return false
		}
		return h.Quantile(0.25) <= h.Quantile(0.5) && h.Quantile(0.5) <= h.Quantile(0.95)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sliceHist is the plain-slice histogram the block storage replaced: one
// appended slice, sorted in place by the first query that needs order.
type sliceHist struct {
	samples []float64
	sorted  bool
}

func (r *sliceHist) sort() []float64 {
	if !r.sorted {
		slices.Sort(r.samples)
		r.sorted = true
	}
	return r.samples
}

func (r *sliceHist) countWithin(lo, hi float64) uint64 {
	var n uint64
	for _, x := range r.sort() {
		if x >= lo && x <= hi {
			n++
		}
	}
	return n
}

// Adds interleaved with every query, across block boundaries and after
// earlier flattens, answer exactly what one appended slice answers.
func TestHistogramBlocksMatchSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		h := NewHistogram(25, "blocks")
		ref := &sliceHist{}
		for op := 0; op < 3000; op++ {
			if rng.Intn(50) != 0 {
				x := float64(rng.Intn(2000)) - 300
				if rng.Intn(3) == 0 {
					x += rng.Float64()
				}
				h.Add(x)
				ref.samples = append(ref.samples, x)
				ref.sorted = false
				continue
			}
			lo := float64(rng.Intn(2000)) - 300
			hi := lo + float64(rng.Intn(800))
			q := rng.Float64()
			switch rng.Intn(5) {
			case 0:
				s := ref.sort()
				want := s[min(int(q*float64(len(s))), len(s)-1)]
				if got := h.Quantile(q); got != want {
					t.Fatalf("trial %d op %d: Quantile(%v) = %v, want %v", trial, op, q, got, want)
				}
			case 1:
				if got, want := h.CountWithin(lo, hi), ref.countWithin(lo, hi); got != want {
					t.Fatalf("trial %d op %d: CountWithin = %d, want %d", trial, op, got, want)
				}
			case 2:
				want := float64(ref.countWithin(lo, hi)) / float64(len(ref.samples))
				if got := h.FractionWithin(lo, hi); got != want {
					t.Fatalf("trial %d op %d: FractionWithin = %v, want %v", trial, op, got, want)
				}
			case 3:
				if got := h.Samples(); !slices.Equal(got, ref.samples) {
					t.Fatalf("trial %d op %d: Samples differ from the slice's order", trial, op)
				}
			case 4:
				count := map[int64]uint64{}
				for _, x := range ref.samples {
					count[h.binOf(x)]++
				}
				var total uint64
				for _, b := range h.Bins() {
					if b.Count != count[h.binOf(b.Lo+h.BinWidth/2)] {
						t.Fatalf("trial %d op %d: bin %+v miscounted", trial, op, b)
					}
					total += b.Count
				}
				if total != uint64(len(ref.samples)) {
					t.Fatalf("trial %d op %d: bins hold %d of %d samples", trial, op, total, len(ref.samples))
				}
			}
		}
	}
}

// Filling n samples allocates about 8n bytes: the blocks, whose last one
// is at most histMaxBlock long, and their headers, where an appended
// slice's regrowth allocates several times n.
func TestHistogramFillAllocatesOnce(t *testing.T) {
	const n = 200_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := NewHistogram(10, "fill")
	for i := 0; i < n; i++ {
		h.Add(float64(i % 977))
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*n+8*histMaxBlock+4096); got > limit {
		t.Fatalf("filling %d samples allocated %d B, want at most %d", n, got, limit)
	}
	if h.N() != n || h.Quantile(1) != 976 {
		t.Fatalf("n=%d max=%v", h.N(), h.Quantile(1))
	}
}
