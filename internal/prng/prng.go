// Package prng provides small, fast, deterministic pseudo-random number
// generators used throughout the reconciliation protocols and workload
// generators.
//
// The protocols in this repository assume the public-coin model of the paper
// (§2): Alice and Bob share a random seed and derive every hash function from
// it deterministically. Determinism given a seed is therefore a correctness
// requirement, not just a testing convenience, which is why we do not use
// math/rand's global state anywhere.
package prng

import "math/bits"

// SplitMix64 advances the state x and returns the next output of the
// splitmix64 generator (Steele, Lea & Flood). It is the canonical way this
// repository derives independent seeds from a master seed.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns a high-quality 64-bit mix of x. It is stateless: equal inputs
// give equal outputs. Used to hash single words.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Source is a xoshiro256** generator: tiny state, excellent statistical
// quality, and fully deterministic from its seed.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded deterministically from seed via splitmix64, as
// recommended by the xoshiro authors.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = SplitMix64(&sm)
	}
	// A xoshiro state of all zeros is a fixed point; splitmix64 cannot emit
	// four consecutive zeros, so no further check is needed, but be safe.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform random boolean.
func (r *Source) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
