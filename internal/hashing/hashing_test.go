package hashing

import (
	"testing"
	"testing/quick"
)

func TestPairwiseDeterministic(t *testing.T) {
	h := NewPairwise(5)
	if h.Hash(100) != h.Hash(100) {
		t.Fatal("not deterministic")
	}
	h2 := NewPairwise(5)
	if h.Hash(100) != h2.Hash(100) {
		t.Fatal("same seed differs")
	}
	h3 := NewPairwise(6)
	if h.Hash(100) == h3.Hash(100) && h.Hash(200) == h3.Hash(200) {
		t.Fatal("different seeds agree twice")
	}
}

func TestPairwiseRange(t *testing.T) {
	h := NewPairwise(9)
	f := func(x uint64) bool { return h.Hash(x) < MersennePrime61 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairwiseSpread(t *testing.T) {
	// Pairwise independence implies near-uniform bucket loads.
	h := NewPairwise(11)
	buckets := make([]int, 16)
	const draws = 1 << 16
	for x := uint64(0); x < draws; x++ {
		buckets[h.Hash(x)%16]++
	}
	for b, c := range buckets {
		if c < draws/16-draws/64 || c > draws/16+draws/64 {
			t.Fatalf("bucket %d load %d far from uniform", b, c)
		}
	}
}

func TestMulmod61MatchesSlow(t *testing.T) {
	cases := [][2]uint64{{0, 0}, {1, 1}, {MersennePrime61 - 1, MersennePrime61 - 1}, {12345, 67890}}
	for _, c := range cases {
		// Slow reference via repeated addition in 128-bit avoidance: use
		// big-int-free check through the identity (a*b mod p) via Pairwise
		// linearity: h(x) = a x + b so h(x1+x2) - h(x1) - h(x2) + b = a*... —
		// instead verify commutativity and a known square.
		if mulmod61(c[0], c[1]) != mulmod61(c[1], c[0]) {
			t.Fatal("mulmod61 not commutative")
		}
	}
	if got := mulmod61(1<<30, 1<<31); got != 1 {
		// 2^61 mod (2^61 - 1) = 1.
		t.Fatalf("2^61 mod p = %d, want 1", got)
	}
}

func TestHashBytesBasics(t *testing.T) {
	if HashBytes(1, []byte("abc")) != HashBytes(1, []byte("abc")) {
		t.Fatal("not deterministic")
	}
	if HashBytes(1, []byte("abc")) == HashBytes(2, []byte("abc")) {
		t.Fatal("seed ignored")
	}
	if HashBytes(1, []byte("abc")) == HashBytes(1, []byte("abd")) {
		t.Fatal("trivial collision")
	}
	if HashBytes(1, nil) == HashBytes(1, []byte{0}) {
		t.Fatal("length not mixed in")
	}
	// Long inputs exercise the word loop.
	long := make([]byte, 1000)
	long[999] = 1
	long2 := make([]byte, 1000)
	if HashBytes(3, long) == HashBytes(3, long2) {
		t.Fatal("tail byte ignored")
	}
}

func TestHashUint64sOrderSensitive(t *testing.T) {
	a := HashUint64s(7, []uint64{1, 2, 3})
	b := HashUint64s(7, []uint64{3, 2, 1})
	if a == b {
		t.Fatal("order not mixed in (canonical-set hashing relies on sorted input)")
	}
	if HashUint64s(7, []uint64{1}) == HashUint64s(7, []uint64{1, 0}) {
		t.Fatal("length not mixed in")
	}
}

func TestCoinsIndependentRoles(t *testing.T) {
	c := NewCoins(99)
	if c.Seed("a", 0) == c.Seed("a", 1) {
		t.Fatal("index ignored")
	}
	if c.Seed("a", 0) == c.Seed("b", 0) {
		t.Fatal("label ignored")
	}
	// Stateless: same derivation twice gives the same seed (public coins).
	if c.Seed("x", 5) != NewCoins(99).Seed("x", 5) {
		t.Fatal("coins not reproducible from master seed")
	}
	if c.Sub("p", 0).Seed("x", 0) == c.Sub("p", 1).Seed("x", 0) {
		t.Fatal("sub-coins not independent")
	}
	if c.Master() != 99 {
		t.Fatal("master seed lost")
	}
}

func TestCoinsPairwiseUsable(t *testing.T) {
	c := NewCoins(3)
	h := NewPairwise(c.Seed("role", 2))
	if h.Hash(5) != NewPairwise(NewCoins(3).Seed("role", 2)).Hash(5) {
		t.Fatal("pairwise derivation not reproducible")
	}
}
