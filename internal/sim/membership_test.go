package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPermPrefixMatchesPerm holds the bootstrap draw to rand.Perm's: for
// every length and prefix, permPrefix returns exactly Perm's first k values
// and leaves the stream where Perm leaves it, so the next draw agrees too.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		for _, n := range []int{1, 2, 3, 7, 64, 1000} {
			for _, k := range []int{1, 2, 5, n / 2, n} {
				if k < 1 || k > n {
					continue
				}
				want, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				perm, pre := want.Perm(n)[:k], permPrefix(got, n, k)
				if !slices.Equal(pre, perm) {
					t.Fatalf("seed %d n %d k %d: prefix %v, Perm %v", seed, n, k, pre, perm)
				}
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d n %d k %d: next draw %d after the prefix, %d after Perm", seed, n, k, g, w)
				}
			}
		}
	}
}
