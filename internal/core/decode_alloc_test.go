package core

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/raceflag"
	"sosr/internal/setutil"
	"sosr/internal/workload"
)

// Allocation budgets of the one-round protocols. Every encode and decode runs
// on one pooled workspace, so what a call allocates is what it returns:
// Alice her payload, Bob his Result (the struct, and the reassembled parent
// and the two sorted difference lists in one arena and one header slice; they
// were an arena and a header slice each, 7 objects). The budgets sit one
// object over that, so a regression back to a table per level, an encoder per
// level, a slice per recovered child or an arena per list fails loudly. They
// skip under the race detector, where sync.Pool sheds entries.

// oneRoundShapes are the shapes the one-round tests run at, both with
// children of up to 10 elements below 2^32. At the benchmark's (h = 16) a
// whole child set, 65 B, is narrower than any child key, so every kind is
// Theorem 3.3's one whole-set table. At h = 1 024 a whole set is 4 098 B, and
// nested and cascade keep their (child IBLT, hash) tables: Bob's hash index,
// the cross-decode pair loop, the child encoder, a load per level and the
// re-inserted D_B. requireKeys holds each test to its shape's key path.
var oneRoundShapes = []keyShape{
	{"whole-set", 16, false},
	{"child-keyed", 1024, true},
}

// keyShape is a declared child-size bound and whether nested and cascade
// plans keep child keys under it.
type keyShape struct {
	name       string
	h          int
	childKeyed bool
}

func decodeWorkload(t testing.TB) (alice, bob [][]uint64, p Params) {
	return decodeWorkloadAt(t, oneRoundShapes[0].h)
}

// decodeWorkloadAt is 200 children, 16 of them differing, declared at h.
func decodeWorkloadAt(t testing.TB, h int) (alice, bob [][]uint64, p Params) {
	t.Helper()
	alice, bob = workload.PlantedSetsOfSets(17, 200, 10, 1<<32, 16)
	p = Params{S: 200, H: h, U: 1 << 32}
	np, err := p.normalized()
	if err != nil {
		t.Fatal(err)
	}
	return alice, bob, np
}

// measureOneRound returns the allocations of one AliceMsg and of one ApplyMsg
// at each of oneRoundShapes.
func measureOneRound(t *testing.T, kind DigestKind, d int) (encode, decode [2]float64) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds workspaces under the race detector")
	}
	for i, sh := range oneRoundShapes {
		alice, bob, p := decodeWorkloadAt(t, sh.h)
		coins := hashing.NewCoins(42)
		dHat := DHat(d, p.S)
		requireKeys(t, kind, p, d, dHat, sh.childKeyed)
		msg, err := AliceMsg(kind, coins, alice, p, d, dHat)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ApplyMsg(kind, coins, msg, bob, p, d, dHat); err != nil {
			t.Fatal(err)
		}
		encode[i] = testing.AllocsPerRun(20, func() {
			if _, err := AliceMsg(kind, coins, alice, p, d, dHat); err != nil {
				t.Fatal(err)
			}
		})
		decode[i] = testing.AllocsPerRun(20, func() {
			if _, err := ApplyMsg(kind, coins, msg, bob, p, d, dHat); err != nil {
				t.Fatal(err)
			}
		})
	}
	return encode, decode
}

// checkOneRoundBudget fails t when a shape's encode or decode exceeds its
// budget of 2 and 4 objects.
func checkOneRoundBudget(t *testing.T, name string, enc, dec [2]float64) {
	t.Helper()
	for i, sh := range oneRoundShapes {
		t.Logf("%s %s: AliceMsg allocs/op %.0f, ApplyMsg %.0f", name, sh.name, enc[i], dec[i])
		if enc[i] > 2 || dec[i] > 4 {
			t.Errorf("%s %s allocates %.0f/encode and %.0f/decode, budgets 2 and 4", name, sh.name, enc[i], dec[i])
		}
	}
}

// The cascade decode went from 1449 objects to ≤ 150, to 7 on the workspace,
// to 3 with one arena per Result; the encode from 45 (a table and an encoder
// per level) to 1.
func TestCascadeDecodeAllocBudget(t *testing.T) {
	enc, dec := measureOneRound(t, DigestCascade, 32)
	checkOneRoundBudget(t, "cascade", enc, dec)
}

func TestNestedDecodeAllocBudget(t *testing.T) {
	enc, dec := measureOneRound(t, DigestNested, 16)
	checkOneRoundBudget(t, "nested", enc, dec)
}

func TestNaiveDecodeAllocBudget(t *testing.T) {
	enc, dec := measureOneRound(t, DigestNaive, 16)
	checkOneRoundBudget(t, "naive", enc, dec)
}

// TestCellBytesAllocationFree: the bound audit calls CellBytes once per
// served session, on the hot path; it derives its plan on a pooled workspace.
func TestCellBytesAllocationFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds workspaces under the race detector")
	}
	for _, sh := range oneRoundShapes {
		_, _, p := decodeWorkloadAt(t, sh.h)
		for _, kind := range oneRoundKinds {
			if got := testing.AllocsPerRun(20, func() { CellBytes(kind, p, 32) }); got != 0 {
				t.Errorf("%s kind %d: CellBytes allocates %.0f objects", sh.name, kind, got)
			}
		}
	}
}

// TestApplyMsgCachedParity proves the sketch-subtraction path recovers the
// byte-identical difference for every one-round protocol: IBLT linearity
// makes Subtract(aggregate of Bob's encodings) the same table state as
// deleting each encoding individually.
func TestApplyMsgCachedParity(t *testing.T) {
	coins := hashing.NewCoins(42)
	for _, tc := range []struct {
		name string
		kind DigestKind
		d    int
	}{
		{"cascade", DigestCascade, 32},
		{"nested", DigestNested, 16},
		{"naive", DigestNaive, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sh := range oneRoundShapes {
				t.Run(sh.name, func(t *testing.T) {
					alice, bob, p := decodeWorkloadAt(t, sh.h)
					dHat := DHat(tc.d, p.S)
					requireKeys(t, tc.kind, p, tc.d, dHat, sh.childKeyed)
					msg, err := AliceMsg(tc.kind, coins, alice, p, tc.d, dHat)
					if err != nil {
						t.Fatal(err)
					}
					plain, err := ApplyMsg(tc.kind, coins, msg, bob, p, tc.d, dHat)
					if err != nil {
						t.Fatal(err)
					}
					sk, err := NewBobSketch(tc.kind, coins, bob, p, tc.d, dHat)
					if err != nil {
						t.Fatal(err)
					}
					cached, err := ApplyMsgCached(tc.kind, coins, msg, bob, p, tc.d, dHat, sk)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(plain.Recovered, cached.Recovered) {
						t.Fatal("cached Recovered differs from plain")
					}
					if !reflect.DeepEqual(plain.Added, cached.Added) {
						t.Fatal("cached Added differs from plain")
					}
					if !reflect.DeepEqual(plain.Removed, cached.Removed) {
						t.Fatal("cached Removed differs from plain")
					}
					if sk.SizeBytes() <= 0 {
						t.Fatal("sketch reports non-positive size")
					}
				})
			}
		})
	}
}

// TestBobSketchSubtractionBytes pins the linearity argument itself: a parent
// table with every encoding deleted marshals to exactly the same bytes as one
// with the insert-built aggregate subtracted.
func TestBobSketchSubtractionBytes(t *testing.T) {
	_, bob, p := decodeWorkload(t)
	coins := hashing.NewCoins(42)
	codec := newChildCodec(coins, "cascade/child", 1, iblt.CellsTight(2), p)
	enc := codec.encoder()

	deleted := iblt.New(64, codec.width, 0, 7)
	for _, cs := range bob {
		deleted.Delete(enc.encode(cs))
	}

	agg := iblt.New(64, codec.width, 0, 7)
	for _, cs := range bob {
		agg.Insert(enc.encode(cs))
	}
	subtracted := iblt.New(64, codec.width, 0, 7)
	if err := subtracted.Subtract(agg); err != nil {
		t.Fatal(err)
	}

	if string(deleted.AppendMarshal(nil)) != string(subtracted.AppendMarshal(nil)) {
		t.Fatal("delete-loop table and subtract-aggregate table marshal differently")
	}
}

// TestApplyMsgCachedRejectsMismatch ensures a stale or foreign sketch is an
// error, never a silent wrong answer: other coins, another d, and — for every
// kind — another parent set of the same size or the same children in another
// order are refused up front as ErrBadDigest (the last two used to surface
// only as a late ErrVerify).
func TestApplyMsgCachedRejectsMismatch(t *testing.T) {
	for _, sh := range oneRoundShapes {
		t.Run(sh.name, func(t *testing.T) {
			alice, bob, p := decodeWorkloadAt(t, sh.h)
			for _, kind := range oneRoundKinds {
				requireKeys(t, kind, p, 32, DHat(32, p.S), sh.childKeyed)
			}
			rejectsMismatch(t, alice, bob, p)
		})
	}
}

func rejectsMismatch(t *testing.T, alice, bob [][]uint64, p Params) {
	coins := hashing.NewCoins(42)
	const d = 32
	dHat := DHat(d, p.S)
	msg, err := AliceMsg(DigestCascade, coins, alice, p, d, dHat)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewBobSketch(DigestCascade, hashing.NewCoins(43), bob, p, d, dHat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyMsgCached(DigestCascade, coins, msg, bob, p, d, dHat, sk); err == nil {
		t.Fatal("wrong-coins sketch accepted")
	}
	sk2, err := NewBobSketch(DigestCascade, coins, bob, p, 16, DHat(16, p.S))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyMsgCached(DigestCascade, coins, msg, bob, p, d, dHat, sk2); err == nil {
		t.Fatal("wrong-d sketch accepted")
	}

	other := setutil.CloneSets(bob)
	other[3] = []uint64{1 << 41, 1<<41 + 1}
	for _, kind := range []DigestKind{DigestNaive, DigestNested, DigestCascade} {
		msg, err := AliceMsg(kind, coins, alice, p, d, dHat)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := NewBobSketch(kind, coins, other, p, d, dHat)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ApplyMsgCached(kind, coins, msg, bob, p, d, dHat, sk); !errors.Is(err, ErrBadDigest) {
			t.Errorf("kind %d: sketch of another parent: err = %v, want ErrBadDigest", kind, err)
		}
		// The same children in another order index differently: refused too.
		swapped := slices.Clone(bob)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		if _, err := ApplyMsgCached(kind, coins, msg, swapped, p, d, dHat, mustSketch(t, kind, coins, bob, p, d)); !errors.Is(err, ErrBadDigest) {
			t.Errorf("kind %d: sketch of a reordered parent: err = %v, want ErrBadDigest", kind, err)
		}
		if _, err := ApplyMsgCached(kind, coins, msg, setutil.CloneSets(bob), p, d, dHat, mustSketch(t, kind, coins, bob, p, d)); err != nil {
			t.Errorf("kind %d: sketch refused an equal copy of its parent: %v", kind, err)
		}
	}
}

// TestMRAlice3AllocBudget pins Theorem 3.9's matching step: Alice compares
// each of her differing child sets with every one of Bob's sketches, and that
// pair loop must not allocate — nor must anything per differing child: one
// estimator is reset per child and merged, straight from Bob's bytes, into
// one scratch; what the step allocates is the round it returns.
func TestMRAlice3AllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds workspaces under the race detector")
	}
	alice, bob, p := decodeWorkload(t) // 16 differing children on each side
	coins := hashing.NewCoins(42)
	dHat := DHat(16, p.S)
	round2, _, err := MRBob2(coins, bob, p, MRAlice1(coins, alice, dHat))
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	run := func() {
		round3, _, err := MRAlice3(coins, alice, p, 16, round2)
		if err != nil {
			t.Fatal(err)
		}
		n := int(binary.LittleEndian.Uint32(round3))
		pairs = n * n
	}
	run()
	got := testing.AllocsPerRun(10, run)
	t.Logf("MRAlice3 allocs/op: %.0f for %d (child, sketch) pairs", got, pairs)
	if got > 2 || pairs < 100 {
		t.Fatalf("MRAlice3 allocates %.0f/op over %d pairs, budget 2", got, pairs)
	}
}

// TestMultiRoundStepAllocBudgets: the other steps of Theorems 3.9/3.10 at the
// benchmark's shape. Each allocates what it returns — a round's bytes; for
// Bob's round 2 also the state and its D_B list; for the finish the Result,
// packed like a one-round decode's — where the finish was 393 objects (a
// matrix row per point and a solver per pair), then 8 (an arena per list),
// round 2 was 84 (an estimator per differing child) and round 3, 129.
func TestMultiRoundStepAllocBudgets(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds workspaces under the race detector")
	}
	alice, bob, p := decodeWorkload(t)
	alice, bob = setutil.CanonicalSets(alice), setutil.CanonicalSets(bob)
	coins := hashing.NewCoins(42)
	probe := BuildChildDiffProbe(coins, bob, p)
	dHat := EstimateChildDiff(probe, coins, alice, p)
	msg1 := MRAlice1(coins, alice, dHat)
	msg2, st, err := MRBob2(coins, bob, p, msg1)
	if err != nil {
		t.Fatal(err)
	}
	msg3, _, err := MRAlice3(coins, alice, p, 0, msg2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"BuildChildDiffProbe", 2, func() error { BuildChildDiffProbe(coins, bob, p); return nil }},
		{"EstimateChildDiff", 1, func() error { EstimateChildDiff(probe, coins, alice, p); return nil }},
		{"MRAlice1", 2, func() error { MRAlice1(coins, alice, dHat); return nil }},
		{"MRBob2", 4, func() error { _, _, err := MRBob2(coins, bob, p, msg1); return err }},
		{"MRBobFinish", 4, func() error { _, err := MRBobFinish(coins, bob, st, msg3); return err }},
	} {
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(10, func() { _ = tc.run() })
		t.Logf("%s allocs/op: %.0f (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s allocates %.0f objects, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
