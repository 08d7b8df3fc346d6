package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestRNGForkIndependentOfParentDraws(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	// Consume some draws from a only; forks must still agree.
	for i := 0; i < 100; i++ {
		a.Float64()
	}
	fa := a.Fork("mac-traffic")
	fb := b.Fork("mac-traffic")
	for i := 0; i < 100; i++ {
		if fa.Float64() != fb.Float64() {
			t.Fatal("forked streams must depend only on seed and label")
		}
	}
}

// TestForkSeedMatchesFork checks that a generator seeded with ForkSeed
// draws exactly the stream Fork gives, and pins the child seeds: every
// golden output depends on this derivation.
func TestForkSeedMatchesFork(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		label string
		child int64
	}{
		{1991, "machine/tx", -2259518821065388613},
		{7, "ring-token-jitter", 6934263197562494690},
		{-3, "pcat-loop", -6655552185402096545},
		{0, "", 0},
	} {
		if got := ForkSeed(c.seed, c.label); got != c.child {
			t.Fatalf("ForkSeed(%d, %q) = %d, want %d", c.seed, c.label, got, c.child)
		}
		a := NewRNG(ForkSeed(c.seed, c.label))
		b := NewRNG(c.seed).Fork(c.label)
		for i := 0; i < 1000; i++ {
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("seed %d label %q: draw %d is %v, Fork's is %v", c.seed, c.label, i, x, y)
			}
		}
	}
}

func TestRNGForkDistinctLabels(t *testing.T) {
	g := NewRNG(1)
	a := g.Fork("alpha")
	b := g.Fork("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 64 {
		t.Fatal("different labels should yield different streams")
	}
}

func TestUniformBounds(t *testing.T) {
	g := NewRNG(3)
	lo, hi := 10*Microsecond, 20*Microsecond
	for i := 0; i < 10000; i++ {
		v := g.Uniform(lo, hi)
		if v < lo || v > hi {
			t.Fatalf("Uniform out of bounds: %v", v)
		}
	}
	if g.Uniform(5*Microsecond, 5*Microsecond) != 5*Microsecond {
		t.Fatal("degenerate Uniform should return the bound")
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(4)
	mean := 10 * Millisecond
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(g.Exp(mean))
	}
	got := sum / n
	if math.Abs(got-float64(mean)) > 0.05*float64(mean) {
		t.Fatalf("Exp mean off: got %v want ~%v", Time(got), mean)
	}
}

func TestNormalTruncation(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 10000; i++ {
		if g.Normal(Microsecond, 100*Microsecond) < 0 {
			t.Fatal("Normal must be truncated at zero")
		}
	}
}

func TestParetoBounds(t *testing.T) {
	g := NewRNG(6)
	lo, hi := Millisecond, 100*Millisecond
	for i := 0; i < 10000; i++ {
		v := g.Pareto(lo, hi, 1.3)
		if v < lo || v > hi {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestPick(t *testing.T) {
	g := NewRNG(8)
	choices := []int{10, 20, 30}
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		seen[Pick(g, choices)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick should eventually hit every element, saw %v", seen)
	}
}

// Property: Uniform stays within bounds for arbitrary bound pairs.
func TestUniformProperty(t *testing.T) {
	g := NewRNG(9)
	f := func(a, b uint32) bool {
		lo, hi := Time(a), Time(b)
		if hi < lo {
			lo, hi = hi, lo
		}
		v := g.Uniform(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfRange(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 10000; i++ {
		k := g.Zipf(17, 1.1)
		if k < 0 || k >= 17 {
			t.Fatalf("Zipf rank out of range: %d", k)
		}
	}
	if g.Zipf(1, 2.0) != 0 {
		t.Fatal("Zipf over one rank must return 0")
	}
}

// TestZipfFrequencySlope checks the defining shape claim over fixed
// seeds: on a log-log plot of frequency against rank, the sampled
// distribution's least-squares slope is ≈ -s.
func TestZipfFrequencySlope(t *testing.T) {
	for _, s := range []float64{0.8, 1.0, 1.4} {
		const n = 40
		const draws = 400000
		g := NewRNG(12)
		counts := make([]float64, n)
		for i := 0; i < draws; i++ {
			counts[g.Zipf(n, s)]++
		}
		// Regress log(count) on log(rank+1) over the well-sampled head.
		var sx, sy, sxx, sxy float64
		m := 0
		for k := 0; k < n/2; k++ {
			if counts[k] < 50 {
				break
			}
			x, y := math.Log(float64(k+1)), math.Log(counts[k])
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
			m++
		}
		if m < 5 {
			t.Fatalf("s=%v: only %d well-sampled ranks", s, m)
		}
		slope := (float64(m)*sxy - sx*sy) / (float64(m)*sxx - sx*sx)
		if math.Abs(slope+s) > 0.08 {
			t.Fatalf("s=%v: frequency-rank slope %.3f, want ≈ %.3f", s, slope, -s)
		}
	}
}

func TestZipfUniformWhenExponentZero(t *testing.T) {
	g := NewRNG(13)
	const n = 8
	const draws = 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[g.Zipf(n, 0)]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-draws/n) > 0.05*draws/n {
			t.Fatalf("s=0 rank %d count %d, want ≈ %d", k, c, draws/n)
		}
	}
}

// TestZipfForkStability pins the reproducibility the lab pool depends
// on: a Fork-derived generator draws the same Zipf sequence regardless
// of the parent's history, and regardless of which other (n, s) pairs
// the generator sampled before (the CDF cache must not leak state).
func TestZipfForkStability(t *testing.T) {
	a := NewRNG(14)
	b := NewRNG(14)
	for i := 0; i < 37; i++ {
		a.Float64()
		a.Zipf(9, 0.7) // perturb a's cache too
	}
	fa := a.Fork("population")
	fb := b.Fork("population")
	for i := 0; i < 1000; i++ {
		if fa.Zipf(100, 1.2) != fb.Zipf(100, 1.2) {
			t.Fatalf("draw %d: forked Zipf streams diverged", i)
		}
	}
	// Alternating parameters rebuilds the cache but consumes exactly one
	// uniform per draw, so the streams must still agree.
	for i := 0; i < 200; i++ {
		if fa.Zipf(10, 0.5) != fb.Zipf(10, 0.5) || fa.Zipf(50, 1.5) != fb.Zipf(50, 1.5) {
			t.Fatalf("draw %d: Zipf cache rebuild perturbed the stream", i)
		}
	}
}

func TestBoolProbabilityExtremes(t *testing.T) {
	g := NewRNG(10)
	for i := 0; i < 100; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) must never be true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) must always be true")
		}
	}
}
