package prng

import (
	"math/bits"
	"testing"
)

// TestMixPinned pins Mix against the outputs of faultnet's own copy of the
// finalizer, captured at the commit before the two mixers became one:
// faultnet.Draw and faultnet.LinkSeed are built on these values.
func TestMixPinned(t *testing.T) {
	for _, c := range [][2]uint64{
		{0x0, 0x0},
		{0x1, 0x5692161d100b05e5},
		{0x2, 0xdbd238973a2b148a},
		{0x9e3779b97f4a7c15, 0xe220a8397b1dcdaf},
		{0xdeadbeefcafef00d, 0x19104ae2406d51c3},
		{0x8000000000000000, 0x25c26ea579cea98a},
		{0xffffffffffffffff, 0xb4d055fcf2cbbd7b},
		{1_000_003, 0xc1fd756f0b09cdf3},
	} {
		if got := Mix(c[0]); got != c[1] {
			t.Errorf("Mix(%#x) = %#x, want %#x", c[0], got, c[1])
		}
	}
}

// TestPublishedVectors: the first outputs of splitmix64 from seed 0, as
// printed by the reference implementation (Vigna, splitmix64.c).
func TestPublishedVectors(t *testing.T) {
	var s Source
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Uint64(); got != want {
			t.Errorf("output %d from seed 0 = %#x, want %#x", i, got, want)
		}
	}
}

func TestInt63IsUint64ShiftedAndSeedRestarts(t *testing.T) {
	a, b := Source(42), Source(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Int63(), b.Uint64()>>1; x != int64(y) || x < 0 {
			t.Fatalf("draw %d: Int63 %d, Uint64>>1 %d", i, x, y)
		}
	}
	for i := 0; i < 1000; i++ {
		if f := a.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v outside [0, 1)", f)
		}
	}
	a.Seed(42)
	b = 42
	if a.Uint64() != b.Uint64() {
		t.Fatal("Seed(42) does not restart the stream of Source(42)")
	}
	r, twin := New(7), Source(7)
	if r.Uint64() != twin.Uint64() || r.Int63() != twin.Int63() {
		t.Fatal("New(7) does not draw from Source(7)")
	}
}

// TestIntnUniform buckets 200 000 Intn draws per n and holds the χ² statistic
// under the 99.99 % quantile of its distribution (n−1 degrees of freedom), for
// the view sizes and fanouts the protocols draw over and for n = 2, where
// only the top bit of a draw decides.
func TestIntnUniform(t *testing.T) {
	const draws = 200_000
	// χ²(0.9999) at 1, 6, 19 and 30 degrees of freedom.
	for _, c := range []struct {
		n     int
		limit float64
	}{{2, 15.14}, {7, 27.86}, {20, 50.80}, {31, 66.62}} {
		n, limit := c.n, c.limit
		r := New(uint64(n))
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[r.Intn(n)]++
		}
		expect, chi2 := float64(draws)/float64(n), 0.0
		for _, c := range counts {
			d := float64(c) - expect
			chi2 += d * d / expect
		}
		if chi2 > limit {
			t.Errorf("Intn(%d): χ² = %.2f over %d draws, want <= %.2f", n, chi2, draws, limit)
		}
	}
}

// TestNeighbouringSeedsDecorrelated: seeds one apart (the callers' affine
// node seeds, seed·1 000 003 + id) give first draws that differ in about half
// their bits, so handing New an unmixed seed is safe.
func TestNeighbouringSeedsDecorrelated(t *testing.T) {
	const pairs = 4096
	flipped := 0
	for id := uint64(0); id < pairs; id++ {
		a, b := Source(3*1_000_003+id), Source(3*1_000_003+id+1)
		flipped += bits.OnesCount64(a.Uint64() ^ b.Uint64())
	}
	if mean := float64(flipped) / pairs; mean < 31 || mean > 33 {
		t.Fatalf("first draws of neighbouring seeds differ in %.2f bits on average, want 32 ± 1", mean)
	}
}
