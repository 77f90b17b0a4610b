package core

import (
	"errors"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// makeInstance builds a planted sets-of-sets instance: Bob holds s child
// sets of ~h elements from [0, u); Alice's copy differs by exactly d element
// edits spread over the child sets. Returned parents are canonical and the
// ground-truth matching distance equals d (verified by callers that care).
func makeInstance(seed uint64, s, h int, u uint64, d int) (alice, bob [][]uint64) {
	src := prng.New(seed)
	used := map[uint64]bool{}
	next := func() uint64 {
		for {
			x := src.Uint64() % u
			if !used[x] {
				used[x] = true
				return x
			}
		}
	}
	bob = make([][]uint64, s)
	for i := range bob {
		size := h/2 + src.Intn(h/2+1)
		if size < 1 {
			size = 1
		}
		cs := make([]uint64, 0, size)
		for j := 0; j < size; j++ {
			cs = append(cs, next())
		}
		bob[i] = setutil.Canonical(cs)
	}
	alice = setutil.CloneSets(bob)
	// Apply d edits: alternate between adding a fresh element to a random
	// child and removing an untouched element. Every edit changes exactly one
	// element in one child, so the minimum matching distance is exactly d
	// (child sets are disjoint random subsets of a large universe).
	removedFrom := map[int]int{}
	for e := 0; e < d; e++ {
		i := src.Intn(s)
		if e%2 == 0 || len(alice[i]) <= 1+removedFrom[i] {
			alice[i] = setutil.Canonical(append(setutil.Clone(alice[i]), next()))
		} else {
			idx := src.Intn(len(alice[i]))
			cs := setutil.Clone(alice[i])
			cs = append(cs[:idx], cs[idx+1:]...)
			alice[i] = cs
			removedFrom[i]++
		}
	}
	return alice, bob
}

func checkRecovered(t *testing.T, res *Result, alice [][]uint64) {
	t.Helper()
	if !setutil.EqualSetOfSets(res.Recovered, alice) {
		t.Fatalf("recovered parent set differs from Alice's")
	}
}

const testU = 1 << 40

func TestDistance(t *testing.T) {
	a := [][]uint64{{1, 2, 3}, {10, 20}}
	b := [][]uint64{{1, 2, 3}, {10, 20}}
	if d := Distance(a, b); d != 0 {
		t.Fatalf("identical distance = %d", d)
	}
	b2 := [][]uint64{{1, 2, 4}, {10, 20}}
	if d := Distance(a, b2); d != 2 {
		t.Fatalf("single swap distance = %d, want 2", d)
	}
	// Matching must pick the cheaper pairing regardless of order.
	a3 := [][]uint64{{1, 2, 3, 4}, {100, 200}}
	b3 := [][]uint64{{100, 200, 300}, {1, 2, 3, 4}}
	if d := Distance(a3, b3); d != 1 {
		t.Fatalf("crossed pairing distance = %d, want 1", d)
	}
	// Unequal cardinality: extra child pairs with the empty set.
	a4 := [][]uint64{{1, 2}}
	b4 := [][]uint64{{1, 2}, {7, 8, 9}}
	if d := Distance(a4, b4); d != 3 {
		t.Fatalf("extra child distance = %d, want 3", d)
	}
}

func TestMakeInstanceDistance(t *testing.T) {
	for _, d := range []int{0, 1, 5, 16} {
		alice, bob := makeInstance(uint64(d)*7+1, 12, 16, testU, d)
		if got := Distance(alice, bob); got != d {
			t.Fatalf("planted d=%d, measured %d", d, got)
		}
	}
}

func TestValidate(t *testing.T) {
	p := Params{S: 4, H: 3, U: 100}
	if err := Validate([][]uint64{{1, 2}, {3}}, p); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	if err := Validate([][]uint64{{2, 1}}, p); err == nil {
		t.Fatal("non-canonical accepted")
	}
	if err := Validate([][]uint64{{1}, {1}}, p); err == nil {
		t.Fatal("duplicate child accepted")
	}
	if err := Validate([][]uint64{{1, 2, 3, 4}}, p); err == nil {
		t.Fatal("oversized child accepted")
	}
	if err := Validate([][]uint64{{200}}, p); err == nil {
		t.Fatal("out-of-universe element accepted")
	}
	if err := Validate([][]uint64{{1}, {2}, {3}, {4}, {5}}, p); err == nil {
		t.Fatal("too many children accepted")
	}
}

func TestNaiveKnownD(t *testing.T) {
	p := Params{S: 16, H: 24, U: testU}
	for _, d := range []int{0, 1, 4, 12} {
		alice, bob := makeInstance(uint64(d)+100, p.S, 16, p.U, d)
		sess := transport.New()
		res, err := NaiveKnownD(sess, hashing.NewCoins(uint64(d)), alice, bob, p, DHat(d, p.S))
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		checkRecovered(t, res, alice)
		if res.Stats.Rounds != 1 {
			t.Fatalf("rounds = %d", res.Stats.Rounds)
		}
	}
}

func TestNaiveBitmapEncoding(t *testing.T) {
	// Tiny universe: the bitmap encoding (u bits) beats the list encoding.
	p := Params{S: 8, H: 64, U: 256}
	alice, bob := makeInstance(42, p.S, 24, p.U, 6)
	sess := transport.New()
	res, err := NaiveKnownD(sess, hashing.NewCoins(1), alice, bob, p, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, res, alice)
	codec := newNaiveCodec(p)
	if !codec.bitmap {
		t.Fatal("expected bitmap codec for tiny universe")
	}
	if codec.width != 32 {
		t.Fatalf("bitmap width = %d, want 32", codec.width)
	}
}

func TestNaiveUnknownD(t *testing.T) {
	p := Params{S: 16, H: 24, U: testU}
	alice, bob := makeInstance(7, p.S, 16, p.U, 5)
	sess := transport.New()
	res, err := NaiveUnknownD(sess, hashing.NewCoins(5), alice, bob, p)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, res, alice)
	if res.Stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Stats.Rounds)
	}
}

func TestNestedKnownD(t *testing.T) {
	p := Params{S: 24, H: 32, U: testU}
	for _, d := range []int{1, 3, 8, 20} {
		alice, bob := makeInstance(uint64(d)*13+3, p.S, 20, p.U, d)
		sess := transport.New()
		res, err := NestedKnownD(sess, hashing.NewCoins(uint64(d)+1), alice, bob, p, d, DHat(d, p.S))
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		checkRecovered(t, res, alice)
		if res.Stats.Rounds != 1 {
			t.Fatalf("rounds = %d", res.Stats.Rounds)
		}
	}
}

func TestNestedKnownDEqualParents(t *testing.T) {
	p := Params{S: 8, H: 16, U: testU}
	alice, bob := makeInstance(77, p.S, 10, p.U, 0)
	sess := transport.New()
	res, err := NestedKnownD(sess, hashing.NewCoins(2), alice, bob, p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, res, alice)
	if len(res.Added)+len(res.Removed) != 0 {
		t.Fatal("spurious differences on equal parents")
	}
}

func TestNestedUndersizedDetected(t *testing.T) {
	p := Params{S: 16, H: 64, U: testU}
	alice, bob := makeInstance(3, p.S, 48, p.U, 40)
	sess := transport.New()
	_, err := NestedKnownD(sess, hashing.NewCoins(3), alice, bob, p, 2, 2)
	if err == nil {
		t.Fatal("expected failure with tiny bound")
	}
}

func TestNestedUnknownD(t *testing.T) {
	p := Params{S: 16, H: 32, U: testU}
	for _, d := range []int{1, 6, 18} {
		alice, bob := makeInstance(uint64(d)*31+5, p.S, 20, p.U, d)
		sess := transport.New()
		res, err := NestedUnknownD(sess, hashing.NewCoins(uint64(d)+9), alice, bob, p)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		checkRecovered(t, res, alice)
		if res.Attempts < 1 {
			t.Fatal("attempts not counted")
		}
		// Each attempt is one Alice message plus one Bob ack/retry.
		if res.Stats.Rounds != 2*res.Attempts {
			t.Fatalf("rounds = %d for %d attempts", res.Stats.Rounds, res.Attempts)
		}
	}
}

func TestCascadeKnownD(t *testing.T) {
	p := Params{S: 24, H: 32, U: testU}
	for _, d := range []int{1, 4, 10, 24} {
		alice, bob := makeInstance(uint64(d)*17+2, p.S, 24, p.U, d)
		sess := transport.New()
		res, err := CascadeKnownD(sess, hashing.NewCoins(uint64(d)+21), alice, bob, p, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		checkRecovered(t, res, alice)
		if res.Stats.Rounds != 1 {
			t.Fatalf("rounds = %d", res.Stats.Rounds)
		}
	}
}

func TestCascadeStarPath(t *testing.T) {
	// d >= h ends the cascade in a whole-set table, where Algorithm 2 puts T*.
	p := Params{S: 12, H: 8, U: testU}
	alice, bob := makeInstance(91, p.S, 6, p.U, 16)
	if _, whole := mustPlan(t, DigestCascade, hashing.NewCoins(1), p, 16, 0).levels(); !whole {
		t.Fatal("expected a whole-set table in plan")
	}
	sess := transport.New()
	res, err := CascadeKnownD(sess, hashing.NewCoins(31), alice, bob, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, res, alice)
}

func TestCascadeUnknownD(t *testing.T) {
	p := Params{S: 16, H: 24, U: testU}
	alice, bob := makeInstance(111, p.S, 16, p.U, 7)
	sess := transport.New()
	res, err := CascadeUnknownD(sess, hashing.NewCoins(17), alice, bob, p)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, res, alice)
}

func TestMultiRoundKnownD(t *testing.T) {
	p := Params{S: 24, H: 32, U: testU}
	for _, d := range []int{1, 5, 12, 30} {
		alice, bob := makeInstance(uint64(d)*7+6, p.S, 24, p.U, d)
		sess := transport.New()
		res, err := MultiRoundKnownD(sess, hashing.NewCoins(uint64(d)+41), alice, bob, p, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		checkRecovered(t, res, alice)
		if res.Stats.Rounds != 3 {
			t.Fatalf("d=%d: rounds = %d, want 3", d, res.Stats.Rounds)
		}
	}
}

func TestMultiRoundUnknownD(t *testing.T) {
	p := Params{S: 20, H: 32, U: testU}
	alice, bob := makeInstance(55, p.S, 20, p.U, 9)
	sess := transport.New()
	res, err := MultiRoundUnknownD(sess, hashing.NewCoins(61), alice, bob, p)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, res, alice)
	if res.Stats.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4", res.Stats.Rounds)
	}
}

func TestUnequalChildCounts(t *testing.T) {
	// Alice has a child set Bob lacks entirely: the empty-set fallback must
	// recover it.
	p := Params{S: 8, H: 8, U: testU}
	bob := [][]uint64{{1, 2, 3}, {10, 11}}
	alice := [][]uint64{{1, 2, 3}, {10, 11}, {50, 51}}
	d := Distance(alice, bob) // 2: the new child vs empty set
	sess := transport.New()
	res, err := NestedKnownD(sess, hashing.NewCoins(71), alice, bob, p, d, DHat(d, p.S))
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, res, alice)

	sess2 := transport.New()
	res2, err := MultiRoundKnownD(sess2, hashing.NewCoins(72), alice, bob, p, d)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, res2, alice)
}

func TestBobHasExtraChild(t *testing.T) {
	p := Params{S: 8, H: 8, U: testU}
	bob := [][]uint64{{1, 2, 3}, {10, 11}, {50, 51}}
	alice := [][]uint64{{1, 2, 3}, {10, 11}}
	d := Distance(alice, bob)
	for name, run := range map[string]func() (*Result, error){
		"nested": func() (*Result, error) {
			return NestedKnownD(transport.New(), hashing.NewCoins(81), alice, bob, p, d, DHat(d, p.S))
		},
		"cascade": func() (*Result, error) {
			return CascadeKnownD(transport.New(), hashing.NewCoins(82), alice, bob, p, d)
		},
		"naive": func() (*Result, error) {
			return NaiveKnownD(transport.New(), hashing.NewCoins(83), alice, bob, p, DHat(d, p.S))
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRecovered(t, res, alice)
	}
}

func TestReplicatedRecoversFromFlakyAttempts(t *testing.T) {
	calls := 0
	res, err := Replicated(transport.New(), hashing.NewCoins(1), 5, func(sess *transport.Session, coins hashing.Coins) (*Result, error) {
		calls++
		if calls < 3 {
			return nil, ErrParentDecode
		}
		return &Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Attempts)
	}
}

func TestReplicatedGivesUp(t *testing.T) {
	_, err := Replicated(transport.New(), hashing.NewCoins(1), 2, func(sess *transport.Session, coins hashing.Coins) (*Result, error) {
		return nil, ErrVerify
	})
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("err = %v", err)
	}
}

func TestCascadeCheaperThanNestedForLargeD(t *testing.T) {
	// Theorem 3.7's point: communication O(d log d log u) beats Algorithm 1's
	// O(d̂ d log u) once d is large. Compare measured bytes.
	p := Params{S: 64, H: 128, U: testU}
	d := 48
	alice, bob := makeInstance(1234, p.S, 96, p.U, d)
	nested := transport.New()
	if _, err := NestedKnownD(nested, hashing.NewCoins(91), alice, bob, p, d, DHat(d, p.S)); err != nil {
		t.Fatal(err)
	}
	cascade := transport.New()
	if _, err := CascadeKnownD(cascade, hashing.NewCoins(92), alice, bob, p, d); err != nil {
		t.Fatal(err)
	}
	if cascade.TotalBytes() >= nested.TotalBytes() {
		t.Fatalf("cascade %dB not cheaper than nested %dB at d=%d",
			cascade.TotalBytes(), nested.TotalBytes(), d)
	}
}

func TestMultiRoundCheaperThanCascadeForSmallDLargeH(t *testing.T) {
	// Table 1's ordering: the 3-round protocol has the least communication
	// when h is large, because it never ships per-level child IBLTs for
	// unchanged elements. Where it starts to win depends on encoding
	// constants. Until protoVersion 6 it won from below d = 16 here (32 967 B
	// against 40 333 B). Version 6 cut cascade's cells to what the plan needs
	// (4-byte checksums, 5-byte key sums at u = 2^40), so cascade fell to
	// 24 720 B, while multi-round fell 2 % (its estimators did not move):
	// the crossover is now between d = 16 and d = 32. d = 64 sits clear of it
	// (61 384 B against 98 332 B).
	p := Params{S: 32, H: 512, U: testU}
	d := 64
	alice, bob := makeInstance(4321, p.S, 384, p.U, d)
	cascade := transport.New()
	if _, err := CascadeKnownD(cascade, hashing.NewCoins(93), alice, bob, p, d); err != nil {
		t.Fatal(err)
	}
	multi := transport.New()
	if _, err := MultiRoundKnownD(multi, hashing.NewCoins(94), alice, bob, p, d); err != nil {
		t.Fatal(err)
	}
	if multi.TotalBytes() >= cascade.TotalBytes() {
		t.Fatalf("multiround %dB not cheaper than cascade %dB", multi.TotalBytes(), cascade.TotalBytes())
	}
}

func TestProtocolsRandomizedSweep(t *testing.T) {
	// Property-style sweep: across random instances, every protocol either
	// errors or recovers exactly Alice's parent set (never silently wrong).
	src := prng.New(999)
	p := Params{S: 12, H: 24, U: testU}
	for trial := 0; trial < 15; trial++ {
		d := 1 + src.Intn(12)
		alice, bob := makeInstance(src.Uint64(), p.S, 16, p.U, d)
		coins := hashing.NewCoins(src.Uint64())
		for name, run := range map[string]func() (*Result, error){
			"naive": func() (*Result, error) {
				return NaiveKnownD(transport.New(), coins, alice, bob, p, DHat(d, p.S))
			},
			"nested": func() (*Result, error) {
				return NestedKnownD(transport.New(), coins, alice, bob, p, d, DHat(d, p.S))
			},
			"cascade": func() (*Result, error) {
				return CascadeKnownD(transport.New(), coins, alice, bob, p, d)
			},
			"multiround": func() (*Result, error) {
				return MultiRoundKnownD(transport.New(), coins, alice, bob, p, d)
			},
		} {
			res, err := run()
			if err != nil {
				continue // failures are allowed, silent corruption is not
			}
			if !setutil.EqualSetOfSets(res.Recovered, alice) {
				t.Fatalf("%s: silent wrong recovery (trial %d, d=%d)", name, trial, d)
			}
		}
	}
}

func TestDHat(t *testing.T) {
	if DHat(5, 10) != 5 || DHat(10, 5) != 5 {
		t.Fatal("DHat broken")
	}
}
