package setrecon

import (
	"errors"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// makePair builds canonical sets (alice, bob) sharing `common` elements with
// exactly d total differences split between them.
func makePair(seed uint64, common, d int) (alice, bob []uint64) {
	src := prng.New(seed)
	seen := map[uint64]bool{}
	next := func() uint64 {
		for {
			x := src.Uint64() % (1 << 59)
			if !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	var shared []uint64
	for i := 0; i < common; i++ {
		shared = append(shared, next())
	}
	alice = append(alice, shared...)
	bob = append(bob, shared...)
	for i := 0; i < d; i++ {
		if i%2 == 0 {
			alice = append(alice, next())
		} else {
			bob = append(bob, next())
		}
	}
	return setutil.Canonical(alice), setutil.Canonical(bob)
}

func TestIBLTKnownD(t *testing.T) {
	for _, d := range []int{0, 1, 2, 5, 20, 100} {
		alice, bob := makePair(uint64(d)+1, 500, d)
		sess := transport.New()
		res, err := IBLTKnownD(sess, hashing.NewCoins(99), alice, bob, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !setutil.Equal(res.Recovered, alice) {
			t.Fatalf("d=%d: recovered set wrong", d)
		}
		if res.Stats.Rounds != 1 {
			t.Fatalf("d=%d: rounds = %d, want 1", d, res.Stats.Rounds)
		}
		if len(res.OnlyA)+len(res.OnlyB) != d {
			t.Fatalf("d=%d: decoded diff %d+%d", d, len(res.OnlyA), len(res.OnlyB))
		}
	}
}

func TestIBLTKnownDCommunicationScalesWithD(t *testing.T) {
	alice, bob := makePair(3, 5000, 10)
	sess10 := transport.New()
	if _, err := IBLTKnownD(sess10, hashing.NewCoins(1), alice, bob, 10); err != nil {
		t.Fatal(err)
	}
	alice2, bob2 := makePair(4, 5000, 100)
	sess100 := transport.New()
	if _, err := IBLTKnownD(sess100, hashing.NewCoins(1), alice2, bob2, 100); err != nil {
		t.Fatal(err)
	}
	if sess100.TotalBytes() <= sess10.TotalBytes() {
		t.Fatal("communication does not grow with d")
	}
	// Communication must be independent of n: compare same d, different n.
	alice3, bob3 := makePair(5, 50000, 10)
	sess3 := transport.New()
	if _, err := IBLTKnownD(sess3, hashing.NewCoins(1), alice3, bob3, 10); err != nil {
		t.Fatal(err)
	}
	if sess3.TotalBytes() != sess10.TotalBytes() {
		t.Fatalf("communication depends on n: %d vs %d", sess3.TotalBytes(), sess10.TotalBytes())
	}
}

func TestIBLTKnownDUndersizedFails(t *testing.T) {
	alice, bob := makePair(8, 100, 400)
	sess := transport.New()
	_, err := IBLTKnownD(sess, hashing.NewCoins(2), alice, bob, 2)
	if err == nil {
		t.Fatal("expected failure with undersized bound")
	}
	if !errors.Is(err, ErrDecode) && !errors.Is(err, ErrVerify) {
		t.Fatalf("unexpected error type: %v", err)
	}
}

func TestIBLTUnknownD(t *testing.T) {
	for _, d := range []int{0, 3, 25, 200} {
		alice, bob := makePair(uint64(d)+50, 1000, d)
		sess := transport.New()
		res, err := IBLTUnknownD(sess, hashing.NewCoins(7), alice, bob)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !setutil.Equal(res.Recovered, alice) {
			t.Fatalf("d=%d: wrong recovery", d)
		}
		if res.Stats.Rounds != 2 {
			t.Fatalf("d=%d: rounds = %d, want 2", d, res.Stats.Rounds)
		}
	}
}

func TestCharPolyExact(t *testing.T) {
	for _, d := range []int{0, 1, 2, 7, 15} {
		alice, bob := makePair(uint64(d)+11, 50, d)
		sess := transport.New()
		res, err := CharPoly(sess, hashing.NewCoins(3), alice, bob, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !setutil.Equal(res.Recovered, alice) {
			t.Fatalf("d=%d: wrong recovery", d)
		}
		if res.Stats.Rounds != 1 {
			t.Fatalf("rounds = %d", res.Stats.Rounds)
		}
	}
}

func TestCharPolyOverboundedStillExact(t *testing.T) {
	// Bound larger than the true difference: gcd reduction must still give
	// the exact answer (probability-1 guarantee).
	alice, bob := makePair(21, 40, 3)
	sess := transport.New()
	res, err := CharPoly(sess, hashing.NewCoins(4), alice, bob, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !setutil.Equal(res.Recovered, alice) {
		t.Fatal("wrong recovery")
	}
}

func TestCharPolyAsymmetricSizes(t *testing.T) {
	// All differences on one side.
	shared := []uint64{10, 20, 30, 40, 50}
	alice := setutil.Canonical(append(append([]uint64{}, shared...), 60, 70, 80))
	bob := setutil.Canonical(shared)
	sess := transport.New()
	res, err := CharPoly(sess, hashing.NewCoins(5), alice, bob, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !setutil.Equal(res.Recovered, alice) {
		t.Fatal("wrong recovery")
	}
	// And the reverse direction.
	sess2 := transport.New()
	res2, err := CharPoly(sess2, hashing.NewCoins(5), bob, alice, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !setutil.Equal(res2.Recovered, bob) {
		t.Fatal("wrong reverse recovery")
	}
}

func TestCharPolyUndersizedFails(t *testing.T) {
	alice, bob := makePair(31, 30, 10)
	sess := transport.New()
	if _, err := CharPoly(sess, hashing.NewCoins(6), alice, bob, 2); err == nil {
		t.Fatal("expected failure when d underestimates the difference")
	}
}

func TestCharPolyRejectsHugeElements(t *testing.T) {
	sess := transport.New()
	_, err := CharPoly(sess, hashing.NewCoins(1), []uint64{1 << 61}, []uint64{}, 1)
	if !errors.Is(err, ErrElementRange) {
		t.Fatalf("got %v, want ErrElementRange", err)
	}
}

func TestCharPolyCommunication(t *testing.T) {
	// O(d log u): d+1 evaluations of 8 bytes plus the 8-byte size.
	alice, bob := makePair(41, 1000, 4)
	sess := transport.New()
	if _, err := CharPoly(sess, hashing.NewCoins(8), alice, bob, 4); err != nil {
		t.Fatal(err)
	}
	want := 8 + 8*(4+1)
	if sess.TotalBytes() != want {
		t.Fatalf("bytes = %d, want %d", sess.TotalBytes(), want)
	}
}

func TestEncodeDecodeCharPolyDirect(t *testing.T) {
	alice := []uint64{1, 2, 3, 100}
	bob := []uint64{1, 2, 3, 200}
	msg := EncodeCharPoly(alice, 5)
	onlyA, onlyB, err := new(Work).DecodeCharPoly(msg, bob, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(onlyA) != 1 || onlyA[0] != 100 || len(onlyB) != 1 || onlyB[0] != 200 {
		t.Fatalf("diff = %v / %v", onlyA, onlyB)
	}
}

func TestDecodeCharPolyMalformed(t *testing.T) {
	if _, _, err := new(Work).DecodeCharPoly([]byte{1, 2, 3}, nil, 1, 0); err == nil {
		t.Fatal("expected malformed error")
	}
}

func TestMultisetRoundTrip(t *testing.T) {
	ms := []uint64{5, 5, 5, 9, 9, 1000}
	set, err := MultisetToSet(ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("packed set size %d, want 3", len(set))
	}
	back, err := SetToMultiset(set)
	if err != nil {
		t.Fatal(err)
	}
	if MultisetSymDiff(ms, back) != 0 {
		t.Fatalf("round trip changed multiset: %v -> %v", ms, back)
	}
}

func TestMultisetRangeChecks(t *testing.T) {
	if _, err := MultisetToSet([]uint64{1 << 50}); !errors.Is(err, ErrMultisetRange) {
		t.Fatalf("element range: %v", err)
	}
	big := make([]uint64, MaxMultiplicity+1)
	if _, err := MultisetToSet(big); !errors.Is(err, ErrMultisetRange) {
		t.Fatalf("multiplicity range: %v", err)
	}
}

func TestMultisetKnownD(t *testing.T) {
	alice := []uint64{1, 1, 2, 3, 3, 3}
	bob := []uint64{1, 2, 2, 3, 3}
	// Packed-set difference: counts of 1 differ (2 vs 1): 2 entries; counts
	// of 2 differ: 2 entries; counts of 3 differ: 2 entries => 6.
	// d ≤ 0 runs the estimator round first.
	for d, rounds := range map[int]int{6: 1, 0: 2} {
		got, res, err := Multiset(transport.New(), hashing.NewCoins(11), alice, bob, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if MultisetSymDiff(got, alice) != 0 {
			t.Fatalf("d=%d: recovered %v, want %v", d, got, alice)
		}
		if res.Stats.Rounds != rounds {
			t.Fatalf("d=%d: rounds = %d, want %d", d, res.Stats.Rounds, rounds)
		}
	}
}

func TestPackUnpackCounted(t *testing.T) {
	for _, c := range []struct{ x, k uint64 }{{0, 1}, {42, 7}, {MaxMultisetElement, MaxMultiplicity}} {
		x, k := UnpackCounted(PackCounted(c.x, c.k))
		if x != c.x || k != c.k {
			t.Fatalf("pack/unpack (%d,%d) -> (%d,%d)", c.x, c.k, x, k)
		}
	}
}

func TestMultisetSymDiff(t *testing.T) {
	if d := MultisetSymDiff([]uint64{1, 1, 2}, []uint64{1, 2, 2}); d != 2 {
		t.Fatalf("d = %d, want 2", d)
	}
	if d := MultisetSymDiff(nil, []uint64{5}); d != 1 {
		t.Fatalf("d = %d, want 1", d)
	}
}
