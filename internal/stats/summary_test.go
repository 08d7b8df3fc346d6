package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N: got %d", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-9) {
		t.Fatalf("mean: got %v", s.Mean())
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if !almostEq(s.Stddev(), math.Sqrt(32.0/7.0), 1e-9) {
		t.Fatalf("stddev: got %v", s.Stddev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max: got %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Stddev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummarySingleSample(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Mean() != 42 || s.Stddev() != 0 || s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("single sample: %s", s.String())
	}
}

// Property: mean is always within [min, max].
func TestSummaryMeanBoundsProperty(t *testing.T) {
	f := func(xs []float32) bool {
		if len(xs) == 0 {
			return true
		}
		var s Summary
		for _, x := range xs {
			s.Add(float64(x))
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
