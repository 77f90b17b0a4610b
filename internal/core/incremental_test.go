package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/raceflag"
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

// TestIncrementalInterleaved drives AddAll, Add and Remove in a seeded
// interleaving with refused calls — a duplicate add, an absent remove, a
// repeated child within one AddAll, and adds past S, H and U. After every
// accepted call the snapshot is AliceMsg over the model parent; after every
// refused call it is unchanged, the whole AddAll batch included.
func TestIncrementalInterleaved(t *testing.T) {
	for _, tc := range []struct {
		kind DigestKind
		sh   keyShape
	}{
		{DigestNaive, oneRoundShapes[0]},
		{DigestNested, oneRoundShapes[0]},
		{DigestCascade, oneRoundShapes[1]},
	} {
		p, err := Params{S: 48, H: tc.sh.h, U: 1 << 32}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		const d = 4
		dHat := DHat(d, p.S)
		requireKeys(t, tc.kind, p, d, dHat, tc.sh.childKeyed)
		coins := hashing.NewCoins(31)
		b, err := NewIncrementalDigest(tc.kind, coins, p, d, dHat)
		if err != nil {
			t.Fatal(err)
		}
		src := prng.New(uint64(tc.kind) + 32)
		used := map[uint64]bool{}
		// fresh is a child set of n elements no other child holds.
		fresh := func(n int) []uint64 {
			cs := make([]uint64, 0, n)
			for len(cs) < n {
				if x := src.Uint64n(p.U); !used[x] {
					used[x] = true
					cs = append(cs, x)
				}
			}
			return setutil.Canonical(cs)
		}
		some := func() []uint64 { return fresh(1 + src.Intn(12)) }
		var model [][]uint64
		snap := b.SnapshotMsg()
		accept := func(step string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("kind %d, %s: %v", tc.kind, step, err)
			}
			want, err := AliceMsg(tc.kind, coins, model, p, d, dHat)
			if err != nil {
				t.Fatal(err)
			}
			if snap = b.SnapshotMsg(); !bytes.Equal(snap, want) || b.Len() != len(model) {
				t.Fatalf("kind %d, %s: snapshot differs from AliceMsg over %d children", tc.kind, step, len(model))
			}
		}
		refuse := func(step string, err error) {
			t.Helper()
			if !errors.Is(err, ErrInvalidInstance) {
				t.Fatalf("kind %d, %s: %v, want ErrInvalidInstance", tc.kind, step, err)
			}
			if !bytes.Equal(b.SnapshotMsg(), snap) || b.Len() != len(model) {
				t.Fatalf("kind %d, refused %s changed the digest", tc.kind, step)
			}
		}
		addAll := func(batch [][]uint64) {
			t.Helper()
			err := b.AddAll(batch)
			if err == nil {
				model = append(model, batch...)
			}
			accept("AddAll", err)
		}
		addAll(nil)
		for range 300 {
			var present []uint64
			if len(model) > 0 {
				present = model[src.Intn(len(model))]
			}
			switch room := p.S - len(model); src.Intn(9) {
			case 0:
				batch := make([][]uint64, src.Intn(min(room, 6)+1))
				for i := range batch {
					batch[i] = some()
				}
				addAll(batch)
			case 1:
				batch := [][]uint64{some(), some()}
				refuse("AddAll of a repeated child", b.AddAll(append(batch, batch[1])))
				if present != nil {
					refuse("AddAll of a present child", b.AddAll(append(batch, present)))
				}
				refuse("AddAll of a child past H", b.AddAll(append(batch, fresh(p.H+1))))
			case 2, 3:
				if room > 0 {
					cs := some()
					model = append(model, cs)
					accept("Add", b.Add(cs))
				}
			case 4:
				if present != nil {
					refuse("duplicate Add", b.Add(present))
				}
				refuse("Add past H", b.Add(fresh(p.H+1)))
				refuse("Add past U", b.Add([]uint64{1, p.U}))
			case 5, 6:
				if present != nil {
					i := src.Intn(len(model))
					cs := model[i]
					model = append(model[:i], model[i+1:]...)
					accept("Remove", b.Remove(cs))
				}
			case 7:
				refuse("absent Remove", b.Remove(some()))
			case 8:
				// Fill to S: one more child is then past S, alone or in a batch.
				batch := make([][]uint64, room)
				for i := range batch {
					batch[i] = some()
				}
				addAll(batch)
				refuse("Add past S", b.Add(some()))
				refuse("AddAll past S", b.AddAll([][]uint64{some()}))
			}
		}
	}
}

// TestDigestHeap: at churn_sos_disk's shape (2 000 children of up to 10
// elements, u = 2^32, cascade at d = 8) a live digest's bookkeeping is one
// word a child set, still after 20 000 four-out/four-in updates, and a
// snapshot allocates one object, its body. The two hash maps over the
// children this replaced held 74 B a child fresh and 148 B after these
// updates, their tombstones grown.
func TestDigestHeap(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow memory is in the heap")
	}
	p, err := Params{S: 2000, H: 10, U: 1 << 32}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	parent, _ := makeInstance(61, p.S, p.H, p.U, 0)
	coins := hashing.NewCoins(61)
	const d = 8
	dHat := DHat(d, p.S)
	b, err := NewIncrementalDigest(DigestCascade, coins, p, d, dHat)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddAll(parent); err != nil {
		t.Fatal(err)
	}
	src := prng.New(62)
	for range 20_000 {
		for range 4 {
			i := src.Intn(len(parent))
			next := slices.Clone(parent[i])
			next[src.Intn(len(next))] = src.Uint64n(p.U)
			next = setutil.Canonical(next)
			if err := b.Remove(parent[i]); err != nil {
				t.Fatal(err)
			}
			if err := b.Add(next); err != nil {
				t.Fatal(err)
			}
			parent[i] = next
		}
	}
	want, err := AliceMsg(DigestCascade, coins, parent, p, d, dHat)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.SnapshotMsg(), want) {
		t.Fatal("snapshot after 20 000 updates differs from AliceMsg")
	}
	if allocs := testing.AllocsPerRun(20, func() { b.SnapshotMsg() }); allocs != 1 {
		t.Errorf("SnapshotMsg allocates %.0f objects, want 1 (its body)", allocs)
	}
	heap := func() int64 {
		runtime.GC() // twice: what a sync.Pool sheds survives one collection
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	held := heap()
	b.vHashes = nil
	freed := held - heap()
	perChild := float64(freed) / float64(len(parent))
	t.Logf("%d child sets keep %d B of bookkeeping, %.1f B a child", len(parent), freed, perChild)
	if perChild > 12 {
		t.Errorf("a live digest keeps %.1f B a child set of bookkeeping, budget 12", perChild)
	}
	runtime.KeepAlive(b)
}

// TestAddAllBuildTime: AddAll sorts once, so its build at s = 100 000 takes
// about s·log s / (2 000·log 2 000) ≈ 76 times its build at s = 2 000. A
// loader that put each child in its sorted place one at a time would move
// ~2·s² bytes, 20 GB here: it measured at over ten times that scaling, where
// AddAll measures under one.
func TestAddAllBuildTime(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector instruments the build's loops, not its moves")
	}
	build := func(s int) time.Duration {
		p, err := Params{S: s, H: 2, U: 1 << 40}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		parent, _ := makeInstance(uint64(s), s, p.H, p.U, 0)
		best := time.Duration(math.MaxInt64)
		for range 3 {
			b, err := NewIncrementalDigest(DigestNaive, hashing.NewCoins(5), p, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if err := b.AddAll(parent); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := build(2_000), build(100_000)
	scale := 100_000 * math.Log(100_000) / (2_000 * math.Log(2_000))
	t.Logf("AddAll: %v at s = 2 000, %v at s = 100 000 (%.1f× the s·log s scaling)", small, large, float64(large)/(scale*float64(small)))
	if float64(large) > 3*scale*float64(small) {
		t.Errorf("AddAll at s = 100 000 took %v, over 3× the s·log s scaling of %v at s = 2 000", large, small)
	}
}
