package sim

import (
	"math/bits"
	"math/rand"
	"testing"
)

// materialised counts the register entries read since the last Seed.
func (s *source) materialised() int {
	n := 0
	for _, w := range s.live {
		n += bits.OnesCount64(w)
	}
	return n
}

// exactnessSeeds are the edge seeds of rngSource.Seed's normalisation (0,
// ±(2³¹−1), its fallback 89482311, values past 2³¹ and 2⁶²) and n seeds
// spread over the whole int64 range.
func exactnessSeeds(n int) []int64 {
	seeds := []int64{0, 1, -1, 2, 89482311, int32max, -int32max, int32max + 5, int32max - 1, 1 << 40, -(1 << 62), 1<<63 - 1, -1 << 63}
	for i := uint64(1); i <= uint64(n); i++ {
		seeds = append(seeds, int64(i*0x9e3779b97f4a7c15))
	}
	return seeds
}

// assertSameDraws draws n values from got and want through Uint64, Int63,
// Float64 and Intn with power-of-two and other bounds, and fails on the
// first difference.
func assertSameDraws(t *testing.T, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 6 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			g, w = got.Intn(8), want.Intn(8)
		case 3:
			g, w = got.Intn(7), want.Intn(7)
		case 4:
			g, w = got.Intn(1000003), want.Intn(1000003)
		case 5:
			g, w = got.Uint64(), want.Uint64()
		}
		if g != w {
			t.Fatalf("seed %d draw %d: got %v, math/rand gives %v", seed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand pins that the lazy source draws exactly
// rand.NewSource's stream, past the 607-entry register wrap twice.
func TestSourceMatchesMathRand(t *testing.T) {
	var src source
	got := rand.New(&src)
	for _, seed := range exactnessSeeds(5000) {
		got.Seed(seed)
		assertSameDraws(t, seed, got, rand.New(rand.NewSource(seed)), 1500)
	}
}

// TestSourceReseedDropsStaleEntries pins that entries materialised under one
// seed never leak into the stream of the next.
func TestSourceReseedDropsStaleEntries(t *testing.T) {
	var src source
	got := rand.New(&src)
	seeds := exactnessSeeds(200)
	for i, seed := range seeds {
		got.Seed(seeds[(i+1)%len(seeds)])
		for j := 0; j < 1000; j++ {
			got.Int63()
		}
		got.Seed(seed)
		assertSameDraws(t, seed, got, rand.New(rand.NewSource(seed)), 1500)
	}
}

// TestSourceSeedIsLazy pins the O(draws) cost of an iteration by count, not
// by clock: Seed materialises nothing, and each draw at most two entries.
func TestSourceSeedIsLazy(t *testing.T) {
	var src source
	for _, seed := range exactnessSeeds(20) {
		src.Seed(seed)
		if n := src.materialised(); n != 0 {
			t.Fatalf("seed %d: %d entries materialised by Seed, want 0", seed, n)
		}
		for k := 1; k <= 400; k++ {
			src.Uint64()
			if n := src.materialised(); n > 2*k {
				t.Fatalf("seed %d: %d entries materialised after %d draws, want at most %d", seed, n, k, 2*k)
			}
		}
	}
}
