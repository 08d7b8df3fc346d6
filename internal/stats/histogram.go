package stats

import (
	"fmt"
	"slices"
	"sort"
)

// Histogram retains the raw samples, so exact quantiles and
// fraction-within-range queries (the form in which the paper states every
// result) can be answered, and derives its fixed-width bins from them.
// Only the quantile and fraction queries sort the samples; the bins are
// counted in one unsorted pass and kept until the next Add.
//
// Add never copies a sample: it fills blocks that grow from histFirstBlock
// to histMaxBlock, so filling n samples allocates about 8n bytes where an
// appended slice's regrowth allocates several times that. The first query
// that needs the samples flattens the blocks once into an exact-size
// slice, after any samples flattened before.
type Histogram struct {
	BinWidth float64 // bin width in microseconds
	Label    string
	samples  []float64   // flattened samples, sorted when sorted is set
	blocks   [][]float64 // full blocks added since the last flatten
	tail     []float64   // the block being filled
	sorted   bool
	binned   bool    // keys and bins count every sample
	keys     []int64 // bin index of each of bins
	bins     []Bin
	Summary
}

// Sample block sizes: the first block is small, so the many short
// histograms stay small, and blocks double up to 32 KiB, the largest
// size the allocator serves from its size classes.
const (
	histFirstBlock = 32
	histMaxBlock   = 4096
)

// NewHistogram returns a histogram with the given bin width (µs) and label.
func NewHistogram(binWidth float64, label string) *Histogram {
	if binWidth <= 0 {
		panic("stats: histogram bin width must be positive")
	}
	return &Histogram{BinWidth: binWidth, Label: label}
}

// Add incorporates one sample (microseconds).
func (h *Histogram) Add(x float64) {
	h.Summary.Add(x)
	if len(h.tail) == cap(h.tail) {
		h.grow()
	}
	h.tail = append(h.tail, x)
	h.sorted = false
	h.binned = false
}

// grow files the full tail block and starts the next one.
func (h *Histogram) grow() {
	size := histFirstBlock
	if c := cap(h.tail); c > 0 {
		h.blocks = append(h.blocks, h.tail)
		size = min(2*c, histMaxBlock)
	}
	h.tail = make([]float64, 0, size)
}

// all returns every sample in one slice, flattening the blocks added since
// the last call into an exact-size copy after the samples flattened
// before.
func (h *Histogram) all() []float64 {
	if len(h.tail) == 0 {
		return h.samples
	}
	flat := make([]float64, h.N())
	n := copy(flat, h.samples)
	for _, b := range h.blocks {
		n += copy(flat[n:], b)
	}
	copy(flat[n:], h.tail)
	h.samples, h.blocks, h.tail = flat, nil, nil
	return flat
}

func (h *Histogram) binOf(x float64) int64 {
	b := int64(x / h.BinWidth)
	if x < 0 && float64(b)*h.BinWidth != x {
		b-- // floor for negatives
	}
	return b
}

// Bin describes one non-empty histogram bin.
type Bin struct {
	Lo, Hi float64
	Count  uint64
}

// Bins returns a copy of the non-empty bins in ascending order.
func (h *Histogram) Bins() []Bin {
	_, bins := h.binCounts()
	return slices.Clone(bins)
}

// binCounts returns the non-empty bins and their indexes, in ascending
// order. It counts each sample's bin in one pass over the unsorted
// samples and keeps the result until the next Add. The counts go into a
// dense slice spanning the lowest to the highest bin, unless that span is
// more than 4× the sample count (or overflows int64), when a map of the
// distinct indexes, sorted afterwards, is smaller.
func (h *Histogram) binCounts() (keys []int64, bins []Bin) {
	if h.binned {
		return h.keys, h.bins
	}
	xs := h.all()
	keys, bins = h.keys[:0], h.bins[:0]
	if len(xs) > 0 {
		lo, hi := h.binOf(xs[0]), h.binOf(xs[0])
		for _, x := range xs[1:] {
			b := h.binOf(x)
			lo, hi = min(lo, b), max(hi, b)
		}
		if span := hi - lo; span >= 0 && span < 4*int64(len(xs)) {
			dense := make([]uint64, span+1)
			for _, x := range xs {
				dense[h.binOf(x)-lo]++
			}
			for i, n := range dense {
				if n > 0 {
					keys = append(keys, lo+int64(i))
					bins = append(bins, h.bin(lo+int64(i), n))
				}
			}
		} else {
			count := make(map[int64]uint64)
			for _, x := range xs {
				count[h.binOf(x)]++
			}
			for k := range count { //ctmsvet:allow determinism keys are sorted immediately below, so output order is independent of map iteration order
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				bins = append(bins, h.bin(k, count[k]))
			}
		}
	}
	h.keys, h.bins, h.binned = keys, bins, true
	return keys, bins
}

// bin returns bin k holding n samples.
func (h *Histogram) bin(k int64, n uint64) Bin {
	return Bin{Lo: float64(k) * h.BinWidth, Hi: float64(k+1) * h.BinWidth, Count: n}
}

// sortedSamples returns every sample in ascending order.
func (h *Histogram) sortedSamples() []float64 {
	s := h.all()
	if !h.sorted {
		sort.Float64s(s)
		h.sorted = true
	}
	return s
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) by nearest rank.
func (h *Histogram) Quantile(q float64) float64 {
	if h.N() == 0 {
		return 0
	}
	s := h.sortedSamples()
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// FractionWithin reports the fraction of samples x with lo ≤ x ≤ hi.
// The paper states its results in exactly this form ("68% of the data
// points fall within 500 µs of 2600 µs").
func (h *Histogram) FractionWithin(lo, hi float64) float64 {
	if h.N() == 0 {
		return 0
	}
	return float64(h.CountWithin(lo, hi)) / float64(h.N())
}

// FractionNear reports the fraction of samples within ±tol of center.
func (h *Histogram) FractionNear(center, tol float64) float64 {
	return h.FractionWithin(center-tol, center+tol)
}

// CountWithin reports how many samples fall in [lo, hi].
func (h *Histogram) CountWithin(lo, hi float64) uint64 {
	if h.N() == 0 {
		return 0
	}
	s := h.sortedSamples()
	i := sort.SearchFloat64s(s, lo)
	j := sort.Search(len(s), func(k int) bool { return s[k] > hi })
	return uint64(j - i)
}

// Mode returns the midpoint of the fullest bin — the "peak" the paper
// describes on each figure. Among equally full bins it picks the lowest.
func (h *Histogram) Mode() float64 {
	keys, bins := h.binCounts()
	best := -1
	for i, b := range bins {
		if best < 0 || b.Count > bins[best].Count {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return (float64(keys[best]) + 0.5) * h.BinWidth
}

// Peaks returns the midpoints of local maxima among bins holding at least
// minFrac of all samples, in ascending position order. It is how tests
// assert the bimodality of Figure 5-2.
func (h *Histogram) Peaks(minFrac float64) []float64 {
	_, bins := h.binCounts()
	if len(bins) == 0 {
		return nil
	}
	total := float64(h.N())
	var peaks []float64
	for i, b := range bins {
		if float64(b.Count)/total < minFrac {
			continue
		}
		leftSmaller := i == 0 || bins[i-1].Count <= b.Count || bins[i-1].Lo != b.Lo-h.BinWidth
		rightSmaller := i == len(bins)-1 || bins[i+1].Count <= b.Count || bins[i+1].Lo != b.Hi
		if leftSmaller && rightSmaller {
			peaks = append(peaks, (b.Lo+b.Hi)/2)
		}
	}
	return coalescePeaks(peaks, 3*h.BinWidth)
}

// coalescePeaks merges peaks closer than minGap, keeping the first.
func coalescePeaks(peaks []float64, minGap float64) []float64 {
	var out []float64
	for _, p := range peaks {
		if len(out) > 0 && p-out[len(out)-1] < minGap {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Samples returns a copy of the raw samples. Their order is not
// guaranteed to be insertion order: a quantile query may have sorted
// them.
func (h *Histogram) Samples() []float64 {
	out := make([]float64, h.N())
	copy(out, h.all())
	return out
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("%s: %s mode=%.0fµs", h.Label, h.Summary.String(), h.Mode())
}
