package sim

import (
	"math"
	"math/rand"
	"testing"
)

// sourceTestSeeds are 1,000 spread seeds plus the edges of math/rand's
// seed reduction: zero, ±1, ±(2^31−1) and its multiples, and the int64
// extremes.
func sourceTestSeeds() []int64 {
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, -2 * int32max,
		int32max + 1, int32max - 1, 89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for i := int64(0); i < 1000; i++ {
		seeds = append(seeds, MixSeed(7, uint64(i)))
	}
	return seeds
}

// The source draws exactly what math/rand's does, for every seed, across
// more than two turns of its 607-word state.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceTestSeeds() {
		var s source
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 3*rngLen; i++ {
			var got, want uint64
			if i%2 == 0 {
				got, want = s.Uint64(), ref.Uint64()
			} else {
				got, want = uint64(s.Int63()), uint64(ref.Int63())
			}
			if got != want {
				t.Fatalf("seed %d draw %d: got %#x, math/rand %#x", seed, i, got, want)
			}
		}
	}
}

// Every RNG method gives what it gave over math/rand's own source.
func TestRNGMatchesMathRand(t *testing.T) {
	picks := []int{3, 1, 4, 1, 5}
	for _, seed := range sourceTestSeeds() {
		g := NewRNG(seed)
		ref := &RNG{r: rand.New(rand.NewSource(seed)), seed: seed}
		draws := []struct {
			name string
			draw func(*RNG) float64
		}{
			{"Float64", func(r *RNG) float64 { return r.Float64() }},
			{"Intn", func(r *RNG) float64 { return float64(r.Intn(1000)) }},
			{"Bool", func(r *RNG) float64 { return map[bool]float64{true: 1}[r.Bool(0.3)] }},
			{"Uniform", func(r *RNG) float64 { return float64(r.Uniform(Microsecond, Second)) }},
			{"Exp", func(r *RNG) float64 { return float64(r.Exp(Millisecond)) }},
			{"Pareto", func(r *RNG) float64 { return float64(r.Pareto(Microsecond, Second, 1.2)) }},
			{"Zipf", func(r *RNG) float64 { return float64(r.Zipf(50, 0.8)) }},
			{"Pick", func(r *RNG) float64 { return float64(Pick(r, picks)) }},
			{"Fork", func(r *RNG) float64 { return r.Fork("child").Float64() }},
		}
		for i := 0; i < 2*rngLen; i++ {
			d := draws[i%len(draws)]
			if got, want := d.draw(g), d.draw(ref); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d %s: got %v, over math/rand %v", seed, i, d.name, got, want)
			}
		}
	}
}

// The seeding table recovered at init is math/rand's: spot-check its
// first and last words against the table in Go's source.
func TestRecoveredCookedTable(t *testing.T) {
	if rngCooked[0] != -4181792142133755926 || rngCooked[rngLen-1] != 4152330101494654406 {
		t.Fatalf("rngCooked[0] = %d, rngCooked[606] = %d", rngCooked[0], rngCooked[rngLen-1])
	}
}

// Seeding alone, sim's source against math/rand's.
func BenchmarkSourceSeed(b *testing.B) {
	var s source
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

func BenchmarkMathRandSeed(b *testing.B) {
	s := rand.NewSource(0)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}
