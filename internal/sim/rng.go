package sim

import "math/rand"

// source is math/rand's Mitchell–Reeds source (the generator behind
// rand.NewSource) with a lazily materialised register, so reseeding is O(1)
// and an iteration pays only for the entries its draws touch.
//
// rngSource.Seed sets register entry i to
//
//	x[3i+21]<<40 ^ x[3i+22]<<20 ^ x[3i+23] ^ cooked[i]
//
// where x[n] = seed·48271ⁿ mod (2³¹−1) is the n-th output of its
// Park–Miller seeding generator and cooked is math/rand's fixed table. Each
// entry therefore has a closed form: seeded computes it from a table of
// powers, and Uint64 materialises an entry the first time the tap/feed
// recurrence reads it after a reseed. Every draw is bit-identical to
// rand.NewSource(seed)'s.
type source struct {
	tap, feed int
	seed      uint64           // normalised seed, in [1, 2³¹−1)
	live      [rngWords]uint64 // entries materialised since the last Seed
	vec       [rngLen]int64    // the feedback register, valid where live
}

const (
	rngLen   = 607
	rngTap   = 273
	rngWords = (rngLen + 63) / 64
	int32max = 1<<31 - 1
	seedMul  = 48271 // the Park–Miller multiplier of rngSource's seeding
)

var (
	// cooked is math/rand's rngCooked table, recovered by deriveCooked.
	cooked [rngLen]int64
	// seedPow[i] is seedMul^(3i+21) mod int32max: the power that gives
	// the first of register entry i's three seeding outputs.
	seedPow [rngLen]uint64
)

func init() {
	p := uint64(1)
	for n := 0; n < 21; n++ {
		p = p * seedMul % int32max
	}
	for i := range seedPow {
		seedPow[i] = p
		p = p * seedMul % int32max * seedMul % int32max * seedMul % int32max
	}
	cooked = deriveCooked()
}

// deriveCooked recovers rngCooked from the first rngLen outputs of
// rand.NewSource(1), so no constants are copied and the table is the
// toolchain's own. Output k (from 1) is vec[feed]+vec[tap] with
// feed = (334−k) mod 607 and tap = (607−k) mod 607, and it overwrites
// vec[feed]. Steps 274–334 and 335–607 read a tap entry that step k−273
// overwrote, so they give vec[60..0] and vec[606..334]; steps 1–273 then
// read only original entries and give vec[333..61].
func deriveCooked() [rngLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var orig [rngLen]int64
	feed := func(k int) int { return ((rngLen-rngTap-k)%rngLen + rngLen) % rngLen }
	for k := rngTap + 1; k <= rngLen; k++ {
		orig[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		orig[feed(k)] = out[k] - orig[rngLen-k]
	}
	var c [rngLen]int64
	for i := range c {
		c[i] = orig[i] ^ seeded(1, i)
	}
	return c
}

// Seed resets the source to rand.NewSource(seed)'s initial state. Like
// rngSource it folds the seed mod 2³¹−1, so s and s+2³¹−1 give one stream.
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
	s.seed = uint64(seed)
	s.live = [rngWords]uint64{}
}

// seeded is register entry i as rngSource.Seed(seed) leaves it, less
// cooked[i]; seed is already normalised.
func seeded(seed uint64, i int) int64 {
	x1 := seed * seedPow[i] % int32max
	x2 := x1 * seedMul % int32max
	x3 := x2 * seedMul % int32max
	return int64(x1<<40 ^ x2<<20 ^ x3)
}

// at returns register entry i, materialising it on first use.
func (s *source) at(i int) int64 {
	w, b := i>>6, uint64(1)<<(i&63)
	if s.live[w]&b == 0 {
		s.vec[i] = seeded(s.seed, i) ^ cooked[i]
		s.live[w] |= b
	}
	return s.vec[i]
}

// Uint64 is rngSource's lagged-Fibonacci step.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.at(s.feed) + s.at(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit integer, as rngSource does.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
