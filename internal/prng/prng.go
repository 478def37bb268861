// Package prng is the repo's one mixer and its peer-lifetime generator:
// splitmix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014). A stream is eight bytes of state, against the
// 607 words (4.9 KB) behind math/rand.NewSource, so anything that lives as
// long as a peer or a link draws from here; one-shot generators that are
// garbage once a workload is built stay on math/rand.NewSource.
package prng

import "math/rand"

// gamma is splitmix64's state increment (2^64 / golden ratio, odd).
const gamma = 0x9E3779B97F4A7C15

// Mix is the splitmix64 finalizer: a bijection on uint64 in which every
// input bit flips each output bit with probability close to 1/2. Seed
// derivation (per-peer streams, per-link draws) chains it over affine
// combinations of seed, ids and cycle.
func Mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Source is a splitmix64 stream, eight bytes held by value. It implements
// rand.Source64.
type Source uint64

// Uint64 advances the stream one step.
func (s *Source) Uint64() uint64 {
	*s += gamma
	return Mix(uint64(*s))
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *Source) Seed(seed int64) { *s = Source(seed) }

// New returns a *rand.Rand over a fresh stream, so every signature that
// takes a *rand.Rand is unchanged by which generator is behind it.
func New(seed uint64) *rand.Rand {
	s := Source(seed)
	return rand.New(&s)
}
