package sim

import (
	"math"
	"math/rand"
	"sort"
)

// RNG is a deterministic source of random variates for the model. It wraps
// a math/rand generator over sim's own copy of math/rand's source (same
// streams, cheaper seeding) with helpers that produce the distributions
// the simulation needs (exponential interarrivals, uniform jitter,
// truncated normals).
//
// Each subsystem should derive its own RNG with Fork so that adding or
// removing one traffic source does not perturb the draws seen by another —
// this keeps experiments comparable across configuration toggles.
//
//ctmsvet:shardowned
type RNG struct {
	r    *rand.Rand
	src  source
	seed int64

	// Zipf sampler state: the CDF is precomputed once per (n, s) pair and
	// reused across draws, so a population generator sampling the same
	// title distribution millions of times pays the harmonic sum once.
	zipfN   int
	zipfS   float64
	zipfCDF []float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{seed: seed}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Seed reports the seed this generator was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Fork derives an independent generator whose stream depends only on the
// parent seed and the label, not on how many draws the parent has made.
func (g *RNG) Fork(label string) *RNG { return NewRNG(ForkSeed(g.seed, label)) }

// ForkSeed is the seed of the child that Fork(label) derives from a
// generator seeded with seed. NewRNG(ForkSeed(seed, label)) is
// NewRNG(seed).Fork(label) without seeding the parent's source, which
// costs as much as seeding the child.
func ForkSeed(seed int64, label string) int64 {
	h := uint64(seed)
	for _, c := range label {
		h = h*1099511628211 + uint64(c) // FNV-style mixing
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int64(h)
}

// MixSeed derives an independent seed from base and a salt, so nearby
// salts (stream or ring indices) get unrelated RNG streams. It is a
// splitmix64-style finalizer over base + salt×φ.
func MixSeed(base int64, salt uint64) int64 {
	h := uint64(base) + salt*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int64(h)
}

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Uniform returns a duration uniformly distributed in [lo, hi]. The
// bounds guard is condition-first so the passing path never boxes the
// Time arguments into Checkf's variadic slice — traffic sources draw
// jitter once per frame, and those boxes showed up in allocation
// profiles.
func (g *RNG) Uniform(lo, hi Time) Time {
	if hi < lo {
		Checkf(false, "Uniform bounds inverted: [%v, %v]", lo, hi)
	}
	if hi == lo {
		return lo
	}
	return lo + Time(g.r.Int63n(int64(hi-lo)+1))
}

// Exp returns an exponentially distributed duration with the given mean.
// Used for Poisson interarrival processes (MAC frames, station insertions,
// background traffic bursts).
func (g *RNG) Exp(mean Time) Time {
	if mean <= 0 {
		Checkf(false, "Exp mean must be positive, got %v", mean)
	}
	return Time(g.r.ExpFloat64() * float64(mean))
}

// Normal returns a normally distributed duration truncated at zero.
func (g *RNG) Normal(mean, stddev Time) Time {
	v := float64(mean) + g.r.NormFloat64()*float64(stddev)
	if v < 0 {
		v = 0
	}
	return Time(v)
}

// LogNormal returns a log-normally distributed duration whose underlying
// normal has the given mu and sigma (in log-nanosecond space). Long-tailed
// kernel code-path costs use this.
func (g *RNG) LogNormal(mu, sigma float64) Time {
	return Time(math.Exp(mu + sigma*g.r.NormFloat64()))
}

// Pareto returns a bounded Pareto-distributed duration in [lo, hi] with
// shape alpha. Heavy-tailed burst lengths use this; the guard is
// condition-first, like Uniform's.
func (g *RNG) Pareto(lo, hi Time, alpha float64) Time {
	if hi <= lo || lo <= 0 {
		Checkf(false, "Pareto bounds invalid: [%v, %v]", lo, hi)
	}
	l := float64(lo)
	h := float64(hi)
	u := g.r.Float64()
	la := math.Pow(l, alpha)
	ha := math.Pow(h, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < l {
		x = l
	}
	if x > h {
		x = h
	}
	return Time(x)
}

// Zipf returns a rank in [0, n) drawn from a Zipf distribution with
// exponent s: rank k is chosen with probability proportional to
// 1/(k+1)^s, so rank 0 is the most popular. s = 0 degenerates to the
// uniform distribution. The sampler inverts a precomputed CDF with one
// uniform draw, so the number of draws consumed per call is fixed —
// unlike rejection samplers, inserting or removing one Zipf consumer
// never perturbs the variates another Fork-derived stream sees. The
// guards are condition-first, like Uniform's.
func (g *RNG) Zipf(n int, s float64) int {
	if n <= 0 {
		Checkf(false, "Zipf needs a positive rank count, got %d", n)
	}
	if !(s >= 0) {
		Checkf(false, "Zipf exponent must be non-negative, got %v", s)
	}
	if n != g.zipfN || s != g.zipfS {
		g.zipfN, g.zipfS = n, s
		g.zipfCDF = zipfCDF(n, s)
	}
	u := g.r.Float64()
	cdf := g.zipfCDF
	return sort.Search(n, func(i int) bool { return cdf[i] > u })
}

// zipfCDF precomputes the cumulative distribution of ranks 0..n-1 with
// weights 1/(k+1)^s, normalized so the last entry is exactly 1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// Pick returns a uniformly selected element of choices.
func Pick[T any](g *RNG, choices []T) T {
	Checkf(len(choices) > 0, "Pick on empty slice")
	return choices[g.Intn(len(choices))]
}
