package prng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	if New(42).Uint64() == c.Uint64() {
		t.Fatal("different seeds collided immediately")
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the splitmix64 reference implementation with
	// seed 0: first outputs.
	s := uint64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := SplitMix64(&s); got != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64Stateless(t *testing.T) {
	if Mix64(12345) != Mix64(12345) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(1) == Mix64(2) {
		t.Fatal("Mix64 collision on trivial inputs")
	}
}

func TestUint64nRange(t *testing.T) {
	src := New(7)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return src.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformish(t *testing.T) {
	src := New(9)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[src.Intn(10)]++
	}
	for v, c := range counts {
		if c < draws/10-draws/50 || c > draws/10+draws/50 {
			t.Fatalf("bucket %d count %d far from uniform", v, c)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(11)
	for i := 0; i < 10000; i++ {
		f := src.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(13)
	p := src.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
}

func TestBool(t *testing.T) {
	src := New(17)
	trues := 0
	for i := 0; i < 10000; i++ {
		if src.Bool() {
			trues++
		}
	}
	if trues < 4500 || trues > 5500 {
		t.Fatalf("Bool bias: %d/10000", trues)
	}
}
