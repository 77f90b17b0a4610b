package core

import (
	"bytes"
	"errors"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/setutil"
)

func TestIncrementalMatchesBatchDigest(t *testing.T) {
	p := Params{S: 16, H: 16, U: 1 << 40}
	alice, _ := makeInstance(77, p.S, 12, p.U, 0)
	for _, kind := range []DigestKind{DigestNaive, DigestNested, DigestCascade} {
		coins := hashing.NewCoins(9)
		b, err := NewIncrementalDigest(kind, coins, p, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range alice {
			if err := b.Add(cs); err != nil {
				t.Fatal(err)
			}
		}
		batch, err := AliceMsg(kind, coins, alice, p, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.SnapshotMsg(), batch) {
			t.Fatalf("kind %d: incremental snapshot differs from batch digest", kind)
		}
	}
}

func TestIncrementalAddRemoveCancels(t *testing.T) {
	p := Params{S: 8, H: 8, U: 1 << 30}
	coins := hashing.NewCoins(10)
	b, err := NewIncrementalDigest(DigestNested, coins, p, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := [][]uint64{{1, 2}, {5, 6, 7}}
	for _, cs := range base {
		if err := b.Add(cs); err != nil {
			t.Fatal(err)
		}
	}
	// Add then remove a transient child: the snapshot must equal the
	// base-only digest.
	transient := []uint64{100, 101}
	if err := b.Add(transient); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(transient); err != nil {
		t.Fatal(err)
	}
	want, err := AliceMsg(DigestNested, coins, base, p, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.SnapshotMsg(), want) {
		t.Fatal("transient add/remove left residue in digest")
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestIncrementalSnapshotApplies(t *testing.T) {
	p := Params{S: 16, H: 16, U: 1 << 40}
	alice, bob := makeInstance(81, p.S, 12, p.U, 5)
	coins := hashing.NewCoins(11)
	b, err := NewIncrementalDigest(DigestCascade, coins, p, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range alice {
		if err := b.Add(cs); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ApplyMsg(DigestCascade, coins, b.SnapshotMsg(), bob, p, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !setutil.EqualSetOfSets(res.Recovered, alice) {
		t.Fatal("snapshot digest did not reconcile")
	}
	// Mutate: drop one child, add another; the next snapshot must track it.
	if err := b.Remove(alice[0]); err != nil {
		t.Fatal(err)
	}
	newChild := setutil.Canonical([]uint64{999999, 999998})
	if err := b.Add(newChild); err != nil {
		t.Fatal(err)
	}
	mutated := append(setutil.CloneSets(alice[1:]), newChild)
	res2, err := ApplyMsg(DigestCascade, coins, b.SnapshotMsg(), bob, p, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !setutil.EqualSetOfSets(res2.Recovered, mutated) {
		t.Fatal("snapshot after mutation did not track updates")
	}
}

// TestIncrementalRejectsInvalid: a child the digest's shape cannot hold is
// ErrInvalidInstance, like one it must not take twice — above all an element
// at or above U, whose high bytes a key sum as wide as U would drop.
func TestIncrementalRejectsInvalid(t *testing.T) {
	p := Params{S: 2, H: 2, U: 100}
	coins := hashing.NewCoins(12)
	b, err := NewIncrementalDigest(DigestNaive, coins, p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, cs := range map[string][]uint64{
		"non-canonical": {2, 1}, "oversized": {1, 2, 3}, "out-of-universe": {200},
	} {
		if err := b.Add(cs); !errors.Is(err, ErrInvalidInstance) {
			t.Fatalf("%s child: %v, want ErrInvalidInstance", name, err)
		}
	}
	if err := b.Add([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]uint64{1}); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("duplicate child: %v, want ErrInvalidInstance", err)
	}
	if err := b.Add([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]uint64{3}); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("child past S: %v, want ErrInvalidInstance", err)
	}
	if err := b.Remove([]uint64{50}); err == nil {
		t.Fatal("removing absent child accepted")
	}
	if _, err := NewIncrementalDigest(DigestKind(99), coins, p, 2, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// The same at the width the wire derives for data below 2^32.
	wide, err := NewIncrementalDigest(DigestCascade, coins, Params{S: 4, H: 4, U: 1 << 32}, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.Add([]uint64{7, 1 << 32}); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("an element of 2^32 at u = 2^32: %v, want ErrInvalidInstance", err)
	}
}

// TestSnapshotMsgMatchesAliceMsg: SnapshotMsg must be byte-identical to the
// raw one-round payload AliceMsg produces (the form sosrnet ships), both on
// the initial build and after incremental mutations — this is the invariant
// that lets the daemon patch cached encodings instead of re-encoding.
func TestSnapshotMsgMatchesAliceMsg(t *testing.T) {
	p := Params{S: 16, H: 16, U: 1 << 40}
	p, err := p.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := makeInstance(81, p.S-2, 12, p.U, 0)
	for _, kind := range []DigestKind{DigestNaive, DigestNested, DigestCascade} {
		coins := hashing.NewCoins(21)
		const d = 4
		dHat := DHat(d, p.S)
		b, err := NewIncrementalDigest(kind, coins, p, d, dHat)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range alice {
			if err := b.Add(cs); err != nil {
				t.Fatal(err)
			}
		}
		want, err := AliceMsg(kind, coins, alice, p, d, dHat)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.SnapshotMsg(), want) {
			t.Fatalf("kind %d: SnapshotMsg differs from AliceMsg", kind)
		}

		// Mutate: remove one child, add a fresh one; parity must hold against
		// a from-scratch encode of the updated parent.
		if err := b.Remove(alice[2]); err != nil {
			t.Fatal(err)
		}
		fresh := []uint64{3, 999, 4321}
		if err := b.Add(fresh); err != nil {
			t.Fatal(err)
		}
		updated := make([][]uint64, 0, len(alice))
		for i, cs := range alice {
			if i != 2 {
				updated = append(updated, cs)
			}
		}
		updated = append(updated, fresh)
		want2, err := AliceMsg(kind, coins, updated, p, d, dHat)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.SnapshotMsg(), want2) {
			t.Fatalf("kind %d: post-mutation SnapshotMsg differs from fresh AliceMsg", kind)
		}
	}
}
