// Package stats provides the statistics the paper reports for each
// measurement: histograms with fixed-width bins, running mean and standard
// deviation, quantiles, fraction-within-range queries, and an ASCII
// renderer that draws the figures.
//
// All values are float64 microseconds by convention, matching the units
// used throughout the paper's section 5.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates running statistics using Welford's algorithm, which
// is numerically stable over the hundreds of thousands of samples a
// 117-minute run produces.
type Summary struct {
	n          uint64
	mean, m2   float64
	min, max   float64
	haveSample bool
}

// Add incorporates one sample.
func (s *Summary) Add(x float64) {
	s.n++
	if !s.haveSample {
		s.min, s.max = x, x
		s.haveSample = true
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N reports the number of samples.
func (s *Summary) N() uint64 { return s.n }

// Mean reports the sample mean, or 0 with no samples.
func (s *Summary) Mean() float64 { return s.mean }

// Var reports the sample variance (n-1 denominator).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev reports the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min reports the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 { return s.min }

// Max reports the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 { return s.max }

// String renders the summary compactly in microseconds.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fµs sd=%.1fµs min=%.1fµs max=%.1fµs",
		s.n, s.Mean(), s.Stddev(), s.Min(), s.Max())
}
