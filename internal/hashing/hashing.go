// Package hashing implements the hash-function families the paper's
// protocols rely on: pairwise-independent hashes over a prime field, seeded
// word hashes, hashes of byte strings and of canonical sets, and the
// public-coin derivation scheme that lets Alice and Bob construct identical
// functions without communication (§2 of the paper).
package hashing

import (
	"encoding/binary"
	"math/bits"

	"sosr/internal/prng"
)

// MersennePrime61 is 2^61 - 1, the modulus used by the pairwise-independent
// family. It comfortably exceeds the 2^60 element universe the protocols use.
const MersennePrime61 uint64 = (1 << 61) - 1

// mulmod61 computes a*b mod 2^61-1 using the Mersenne folding trick.
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo; 2^64 ≡ 8 (mod 2^61-1).
	r := (lo & MersennePrime61) + (lo >> 61) + hi*8
	r = (r & MersennePrime61) + (r >> 61)
	if r >= MersennePrime61 {
		r -= MersennePrime61
	}
	return r
}

// Pairwise is a pairwise-independent hash function h(x) = (a*x + b) mod p
// over the Mersenne prime field, with a != 0. Outputs are in [0, p).
type Pairwise struct {
	a, b uint64
}

// NewPairwise derives a pairwise-independent function from seed.
func NewPairwise(seed uint64) Pairwise {
	sm := seed
	a := prng.SplitMix64(&sm) % MersennePrime61
	for a == 0 {
		a = prng.SplitMix64(&sm) % MersennePrime61
	}
	b := prng.SplitMix64(&sm) % MersennePrime61
	return Pairwise{a: a, b: b}
}

// Hash evaluates the function at x (x is first reduced mod p).
func (h Pairwise) Hash(x uint64) uint64 {
	return addmod61(mulmod61(h.a, x%MersennePrime61), h.b)
}

func addmod61(a, b uint64) uint64 {
	s := a + b
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// The FNV-1a offset basis and prime every byte-string and word hash starts
// from and multiplies by.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

// HashBytes hashes an arbitrary byte string to 64 bits with the given seed.
// It is a seeded FNV-1a variant finished with a strong mixer; equal
// (seed, data) pairs always produce equal outputs on all platforms.
func HashBytes(seed uint64, data []byte) uint64 {
	h := seed ^ fnvOffset
	for len(data) >= 8 {
		v := binary.LittleEndian.Uint64(data)
		h = (h ^ v) * fnvPrime
		h = bits.RotateLeft64(h, 29)
		data = data[8:]
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return prng.Mix64(h ^ uint64(len(data)))
}

// HashWord hashes a single 64-bit word to 64 bits with the given seed. It is
// defined to equal HashBytes(seed, b) where b is x's 8-byte little-endian
// encoding, so word-keyed fast paths (IBLT InsertUint64, estimator updates)
// produce byte-identical structures to the generic byte-string path without
// materializing the encoding.
func HashWord(seed, x uint64) uint64 {
	h := seed ^ fnvOffset
	h = (h ^ x) * fnvPrime
	h = bits.RotateLeft64(h, 29)
	return prng.Mix64(h)
}

// HashUint64s hashes a sequence of words (order matters). Used for hashing
// canonical (sorted) sets and signature lists.
func HashUint64s(seed uint64, xs []uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, x := range xs {
		h = bits.RotateLeft64(h^prng.Mix64(x), 27) * 0x9e3779b97f4a7c15
	}
	return prng.Mix64(h ^ uint64(len(xs)))
}

// Coins models the public coins shared by Alice and Bob: both sides hold the
// same master seed and derive identical, independent hash seeds for each
// labeled role in a protocol. Derivation is stateless, so the order in which
// the two parties derive functions does not matter.
type Coins struct {
	master uint64
}

// NewCoins returns the public coins for a protocol run.
func NewCoins(master uint64) Coins { return Coins{master: master} }

// Master returns the master seed (used when re-deriving coins for sub-protocols).
func (c Coins) Master() uint64 { return c.master }

// Seed derives a 64-bit seed for the given label and index. Distinct
// (label, index) pairs give independent-looking seeds.
func (c Coins) Seed(label string, index int) uint64 {
	h := c.master
	h = prng.Mix64(h ^ HashBytes(0x5eedc0de, []byte(label)))
	return prng.Mix64(h ^ prng.Mix64(uint64(index)*0x9e3779b97f4a7c15+1))
}

// Sub derives child coins for a labeled sub-protocol, so nested protocol
// invocations (e.g. per-level IBLTs in Algorithm 2) get independent streams.
func (c Coins) Sub(label string, index int) Coins {
	return Coins{master: c.Seed(label, index)}
}
