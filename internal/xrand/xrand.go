// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used by every randomised component in this repository.
//
// The generator is xoshiro256++ seeded through splitmix64, the combination
// recommended by Blackman and Vigna. It is not cryptographically secure; it
// is chosen for speed (a handful of ALU ops per 64-bit output), a 2^256-1
// period, and — most importantly for a reproduction — bit-for-bit identical
// streams on every platform and Go release. math/rand's internal generator
// changed across Go versions, which would silently change every experiment;
// this package freezes the stream.
//
// Rand is NOT safe for concurrent use. The simulation engine gives every
// repetition its own Rand derived deterministically from a base seed (see
// NewStream), so parallel runs never share a generator.
package xrand

import "math/bits"

// SplitMix64 advances the splitmix64 state in *state and returns the next
// output. It is used both for seeding xoshiro and for deriving independent
// per-repetition seeds from (baseSeed, index) pairs.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns a well-mixed 64-bit value for the pair (seed, index). Two
// distinct pairs yield streams that are statistically independent for the
// purposes of Monte-Carlo simulation. It is the basis for deterministic
// parallelism: repetition i of an experiment with base seed s always uses
// NewRand(Mix64(s, i)) no matter how many workers run.
func Mix64(seed, index uint64) uint64 {
	s := seed ^ (index+1)*0x9e3779b97f4a7c15
	return SplitMix64(&s)
}

// Rand is a xoshiro256++ pseudo-random number generator.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from the given seed via splitmix64.
// Any seed, including 0, yields a valid non-degenerate state.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// NewStream returns the generator for stream `index` of base seed `seed`.
// It is shorthand for New(Mix64(seed, index)).
func NewStream(seed, index uint64) *Rand {
	return New(Mix64(seed, index))
}

// NewBlockStream returns the generator for sub-stream `block` of
// stream `index` of base seed `seed`: New(Mix64(Mix64(seed, index),
// block)). It is the two-level derivation used by block-structured
// passes (the sharded engines' routing blocks), chosen so a hot loop
// can hoist base := Mix64(seed, index) and re-seed one reusable Rand
// with Seed(Mix64(base, block)) — the stream-contract tests pin that
// equivalence.
func NewBlockStream(seed, index, block uint64) *Rand {
	return New(Mix64(Mix64(seed, index), block))
}

// Seed resets the generator state from seed using splitmix64, per the
// xoshiro authors' recommendation.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	r.s0 = SplitMix64(&sm)
	r.s1 = SplitMix64(&sm)
	r.s2 = SplitMix64(&sm)
	r.s3 = SplitMix64(&sm)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Uint64n returns a uniform integer in [0, n) using Lemire's nearly
// division-free bounded reduction. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path: multiply-shift with rejection only in the biased band.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Binomial returns a sample from Binomial(n, p) by direct simulation of n
// Bernoulli trials. The paper's capacity generator uses n = 7 (capacities
// 1+Bin(7, (c-1)/7)), so the O(n) cost is irrelevant; for general use it
// stays exact for any n at O(n) cost.
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 {
		panic("xrand: Binomial with n < 0")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	k := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			k++
		}
	}
	return k
}
