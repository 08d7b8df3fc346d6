package sim

import "math/rand"

// The additive lagged-Fibonacci generator of math/rand (Mitchell and
// Reeds): 607 words of state, fed back at lag 273.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// lehmerA is the multiplier of the Lehmer generator seeding uses.
	lehmerA = 48271
	// seedSteps is how many Lehmer steps seeding takes: 20 to warm up,
	// then three per state word.
	seedSteps = 20 + 3*rngLen
)

// source is math/rand's rngSource, reproduced draw for draw, with faster
// seeding. math/rand seeds through 1,841 dependent Lehmer steps, each a
// division; here step k is the seed times a precomputed 48271^k mod
// 2^31−1, so the steps are independent multiplies the CPU can overlap.
//
//ctmsvet:shardowned
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

var (
	// lehmerPow[k] is 48271^(k+1) mod 2^31−1: the Lehmer generator's
	// state after k+1 steps from 1.
	lehmerPow [seedSteps]uint64
	// rngCooked is math/rand's unexported table that seeding XORs into
	// the state.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := range lehmerPow {
		p = mod31(p * lehmerA)
		lehmerPow[k] = p
	}
	rngCooked = recoverCooked()
}

// recoverCooked rebuilds math/rand's seeding table from the first rngLen
// outputs of rand.NewSource(1): each output is the sum of two state
// words, and inverting those sums gives the state seeding produced, which
// is the table XOR the Lehmer words of seed 1.
func recoverCooked() [rngLen]int64 {
	ref := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	// Draw k adds vec[feed] and vec[tap], with feed = 333−k and tap =
	// 606−k (mod rngLen), and stores the sum at feed. From draw rngTap on,
	// tap is the feed draw k−rngTap overwrote; before it, tap is a word
	// those later draws recover first.
	feed := func(k int) int { return ((rngLen-rngTap-1-k)%rngLen + rngLen) % rngLen }
	for k := rngTap; k < rngLen; k++ {
		vec[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[feed(k)] = out[k] - vec[rngLen-1-k]
	}
	// With the table still zero, seeding 1 leaves just its Lehmer words.
	var lehmer source
	lehmer.Seed(1)
	for i := range vec {
		vec[i] ^= lehmer.vec[i]
	}
	return vec
}

// mod31 reduces p < 2^62 modulo the Mersenne prime 2^31−1.
func mod31(p uint64) uint64 {
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// Seed sets the state math/rand's Seed would: state word i is three
// consecutive Lehmer values from the reduced seed, packed at bits 40, 20
// and 0, XOR the table.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	pow := lehmerPow[20:]
	for i := range s.vec {
		p := pow[3*i : 3*i+3 : 3*i+3]
		u := int64(mod31(x*p[0]))<<40 ^ int64(mod31(x*p[1]))<<20 ^ int64(mod31(x*p[2]))
		s.vec[i] = u ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
