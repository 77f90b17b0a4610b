package core

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/raceflag"
	"sosr/internal/setutil"
	"sosr/internal/workload"
)

// sketchCells renders everything a sketch subtracts or indexes by: every
// aggregate table (levels, then T*) and the child hashes in parent order.
func sketchCells(sk *BobSketch) [][]byte {
	out := make([][]byte, 0, len(sk.tables)+1)
	for _, t := range sk.tables {
		out = append(out, t.AppendMarshal(nil))
	}
	var hs []byte
	for _, h := range sk.bobHashes {
		hs = binary.LittleEndian.AppendUint64(hs, h)
	}
	return append(out, hs)
}

// freshChild returns a canonical child set of n elements no planted child
// holds (those stay below 2^32).
func freshChild(src *prng.Source, n int) []uint64 {
	cs := make([]uint64, n)
	for i := range cs {
		cs[i] = 1<<40 + src.Uint64n(1<<20)
	}
	return setutil.Canonical(cs)
}

// sketchMutations are the steps of a mutation stream: each returns the next
// parent (sharing untouched children with cur, as an adopted result shares
// nothing but a patched one may) and the |Δ| a patch of it must report, -1
// for a rewrite that must take the build path.
var sketchMutations = []struct {
	name string
	step func(src *prng.Source, cur [][]uint64) (next [][]uint64, delta int)
}{
	{"same", func(_ *prng.Source, cur [][]uint64) ([][]uint64, int) {
		return setutil.CloneSets(cur), 0
	}},
	{"grow", func(src *prng.Source, cur [][]uint64) ([][]uint64, int) {
		return slices.Insert(slices.Clone(cur), src.Intn(len(cur)+1), freshChild(src, 5)), 1
	}},
	{"shrink", func(src *prng.Source, cur [][]uint64) ([][]uint64, int) {
		i := src.Intn(len(cur))
		return slices.Delete(slices.Clone(cur), i, i+1), 1
	}},
	{"duplicate", func(src *prng.Source, cur [][]uint64) ([][]uint64, int) {
		return append(slices.Clone(cur), cur[src.Intn(len(cur))]), 1
	}},
	{"drop-duplicates", func(_ *prng.Source, cur [][]uint64) ([][]uint64, int) {
		// One copy of a child held twice stays: the diff must count copies.
		var next [][]uint64
		seen := map[uint64]bool{}
		for _, cs := range cur {
			if h := setutil.Hash(1, cs); !seen[h] {
				seen[h] = true
				next = append(next, cs)
			}
		}
		return next, len(cur) - len(next)
	}},
	{"rewrite-in-place", func(src *prng.Source, cur [][]uint64) ([][]uint64, int) {
		next := slices.Clone(cur)
		i := src.Intn(len(next))
		next[i] = freshChild(src, 7)
		return next, 2
	}},
	{"reorder", func(src *prng.Source, cur [][]uint64) ([][]uint64, int) {
		next := slices.Clone(cur)
		i, j := src.Intn(len(next)), src.Intn(len(next))
		next[i], next[j] = next[j], next[i]
		return next, 0
	}},
	{"rewrite-all", func(src *prng.Source, cur [][]uint64) ([][]uint64, int) {
		next := make([][]uint64, len(cur))
		for i := range next {
			next[i] = freshChild(src, 4)
		}
		return next, -1
	}},
}

// TestNextBobSketchEqualsBuild: over seeded mutation streams, the sketch
// derived from its predecessor equals the one built from scratch cell for
// cell — every level, whole-set or child-keyed, and the child hashes in
// parent order — for every one-round kind, the predecessor is left as it was,
// and decoding with the derived sketch gives the Result the uncached decode
// gives. At h = 12 a whole child set is narrower than any child key, so the
// nested and both cascade plans there are one whole-set table; at h = 1 024
// nested keeps its child key and the cascade its three child levels; at
// h = 64 and d = 100 the cascade has four child levels and then a whole-set
// fifth, the plan a d ≥ h cascade sends at larger h.
func TestNextBobSketchEqualsBuild(t *testing.T) {
	cases := []struct {
		name   string
		kind   DigestKind
		h, d   int
		tables int
		whole  bool // the last table is keyed by whole child sets
	}{
		{"naive", DigestNaive, 12, 16, 1, true},
		{"nested", DigestNested, 12, 16, 1, true},
		{"nested-child", DigestNested, 1024, 16, 1, false},
		{"cascade", DigestCascade, 12, 6, 1, true},
		{"cascade-star", DigestCascade, 12, 24, 1, true},
		{"cascade-levels", DigestCascade, 1024, 6, 3, false},
		{"cascade-mixed", DigestCascade, 64, 100, 5, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Params{S: 80, H: tc.h, U: 0}.normalized()
			if err != nil {
				t.Fatal(err)
			}
			coins := hashing.NewCoins(0xb0b)
			dHat := DHat(tc.d, p.S)
			for stream := uint64(0); stream < 3; stream++ {
				src := prng.New(0x5eed + stream)
				_, cur := workload.PlantedSetsOfSets(100+stream, 40, 10, 1<<32, 0)
				sk := retainingSketch(t, tc.kind, coins, cur, p, tc.d)
				if n, whole := sk.plan.levels(); n != tc.tables || whole != tc.whole {
					t.Fatalf("plan of %d tables, the last whole-set %v; want %d, %v", n, whole, tc.tables, tc.whole)
				}
				seen := map[string]bool{}
				decoded := 0
				for step := 0; step < 20; step++ {
					m := sketchMutations[src.Intn(len(sketchMutations))]
					if step < len(sketchMutations) {
						m = sketchMutations[step] // every kind of step at least once
					}
					seen[m.name] = true
					next, wantDelta := m.step(src, cur)
					if m.name == "drop-duplicates" && step < len(sketchMutations) && wantDelta == 0 {
						t.Fatal("no duplicate left to drop after the duplicate step")
					}
					before := sketchCells(sk)
					got, delta, err := NextBobSketch(sk, tc.kind, coins, next, p, tc.d, dHat)
					if err != nil {
						t.Fatalf("step %d (%s): %v", step, m.name, err)
					}
					if delta != wantDelta {
						t.Fatalf("step %d (%s): patched %d children, want %d", step, m.name, delta, wantDelta)
					}
					built, err := NewBobSketch(tc.kind, coins, next, p, tc.d, dHat)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(sketchCells(got), sketchCells(built)) {
						t.Fatalf("step %d (%s): derived sketch differs from the built one", step, m.name)
					}
					if !reflect.DeepEqual(sketchCells(sk), before) {
						t.Fatalf("step %d (%s): deriving a successor changed the predecessor", step, m.name)
					}
					if !got.Holds(next) || !built.Holds(next) || wantDelta != 0 && got.Holds(cur) {
						t.Fatalf("step %d (%s): derived sketch holds another parent than its own", step, m.name)
					}

					// Decode against it: Alice is the new parent with one
					// element swapped in each of two children (d = 4) — of
					// children held once, a parent holding a child twice
					// being no legal instance to differ in.
					alice := setutil.CloneSets(next)
					copies := map[uint64]int{}
					for _, cs := range alice {
						copies[setutil.Hash(1, cs)]++
					}
					for i, edits := 0, 0; i < len(alice) && edits < 2; i++ {
						if copies[setutil.Hash(1, alice[i])] == 1 {
							alice[i][len(alice[i])-1] = 1<<50 + src.Uint64n(1<<20)
							edits++
						}
					}
					msg, err := AliceMsg(tc.kind, coins, alice, p, tc.d, dHat)
					if err != nil {
						t.Fatal(err)
					}
					want, wantErr := ApplyMsg(tc.kind, coins, msg, next, p, tc.d, dHat)
					res, err := ApplyMsgCached(tc.kind, coins, msg, next, p, tc.d, dHat, got)
					if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(res, want) {
						t.Fatalf("step %d (%s): cached decode (%v) diverges from the uncached one (%v)", step, m.name, err, wantErr)
					}
					if err == nil {
						decoded++
					}
					cur, sk = next, got
				}
				if decoded < 15 {
					t.Fatalf("only %d of 20 decodes succeeded: the Result comparison proves little", decoded)
				}
				if len(seen) != len(sketchMutations) {
					t.Fatalf("stream covered %d of %d mutation kinds", len(seen), len(sketchMutations))
				}
			}
		})
	}
}

// TestNextBobSketchUnusablePredecessor: a predecessor under other coins or
// another shape is no predecessor — the sketch is built, and is right.
func TestNextBobSketchUnusablePredecessor(t *testing.T) {
	_, bob, p := decodeWorkload(t)
	coins := hashing.NewCoins(42)
	want, err := NewBobSketch(DigestCascade, coins, bob, p, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	foreign := map[string]func() (*BobSketch, error){
		"coins": func() (*BobSketch, error) { return NewBobSketch(DigestCascade, hashing.NewCoins(43), bob, p, 32, 0) },
		"d":     func() (*BobSketch, error) { return NewBobSketch(DigestCascade, coins, bob, p, 16, 0) },
		"kind":  func() (*BobSketch, error) { return NewBobSketch(DigestNested, coins, bob, p, 32, 0) },
		"shape": func() (*BobSketch, error) {
			return NewBobSketch(DigestCascade, coins, bob, Params{S: p.S + 1, H: p.H, U: p.U}, 32, 0)
		},
	}
	for name, mk := range foreign {
		prev, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		got, delta, err := NextBobSketch(prev, DigestCascade, coins, bob, p, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		if delta != -1 {
			t.Errorf("%s: a foreign predecessor was patched (delta %d)", name, delta)
		}
		if !reflect.DeepEqual(sketchCells(got), sketchCells(want)) {
			t.Errorf("%s: sketch built past a foreign predecessor is wrong", name)
		}
	}
}

// TestNextBobSketchAllocBudget: at the churn shape (s = 2000, 8 children
// differing) a patch allocates a fixed handful of objects — the sketch, its
// hashes, one arena per cell array, and the two of the parent copy it retains
// (an arena and a header slice) — and, that copy aside, fewer than the build
// it replaces, which retains none.
func TestNextBobSketchAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds workspaces under the race detector")
	}
	_, bob := workload.PlantedSetsOfSets(5, 2000, 10, 1<<32, 0)
	p, err := Params{S: 2000, H: 10, U: 1 << 32}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	coins := hashing.NewCoins(7)
	src := prng.New(11)
	next := slices.Clone(bob)
	for _, i := range src.Perm(len(next))[:4] {
		next[i] = freshChild(src, len(next[i]))
	}
	for _, tc := range []struct {
		kind DigestKind
		d    int
	}{{DigestNaive, 8}, {DigestNested, 8}, {DigestCascade, 8}, {DigestCascade, 64}} {
		prev := retainingSketch(t, tc.kind, coins, bob, p, tc.d)
		build := testing.AllocsPerRun(10, func() {
			if _, err := NewBobSketch(tc.kind, coins, next, p, tc.d, 0); err != nil {
				t.Fatal(err)
			}
		})
		patch := testing.AllocsPerRun(10, func() {
			if _, delta, err := NextBobSketch(prev, tc.kind, coins, next, p, tc.d, 0); err != nil || delta != 8 {
				t.Fatalf("delta %d, err %v", delta, err)
			}
		})
		t.Logf("kind %d d=%d: patch %.0f allocs, build %.0f", tc.kind, tc.d, patch, build)
		// One table (naive, nested) costs a build what its copy costs a patch.
		const retained = 2
		if patch-retained > build || tc.kind == DigestCascade && patch-retained >= build || patch > 12 {
			t.Errorf("kind %d d=%d: patch allocates %.0f objects (budget 12), build %.0f", tc.kind, tc.d, patch, build)
		}
	}
}

// retainingSketch returns a sketch of bob that can be patched. A sketch built
// with no predecessor keeps no parent; its first successor is therefore built
// too, and retains.
func retainingSketch(t *testing.T, kind DigestKind, coins hashing.Coins, bob [][]uint64, p Params, d int) *BobSketch {
	t.Helper()
	first := mustSketch(t, kind, coins, bob, p, d)
	sk, delta, err := NextBobSketch(first, kind, coins, bob, p, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	parent := int64(24*len(bob) + 8*setutil.TotalSize(bob))
	if delta != -1 || first.bob != nil || sk.SizeBytes() != first.SizeBytes()+parent {
		t.Fatalf("successor of a sketch without its parent: delta %d, sizes %d then %d (parent %d)", delta, first.SizeBytes(), sk.SizeBytes(), parent)
	}
	if !reflect.DeepEqual(sketchCells(sk), sketchCells(first)) {
		t.Fatal("rebuilt successor differs from the first sketch of the same parent")
	}
	return sk
}

func mustSketch(t *testing.T, kind DigestKind, coins hashing.Coins, bob [][]uint64, p Params, d int) *BobSketch {
	t.Helper()
	sk, err := NewBobSketch(kind, coins, bob, p, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// TestSketchSizeBytesMatchesHeap: a cache that holds sketches up to a byte
// budget holds that many bytes. At the cold benchmark shape (200 children of
// up to 10 elements below 2^32, d = 16), where every kind is one whole-set
// table, and at h = 1 024, where nested keeps one child-keyed table and the
// cascade four, the heap 400 sketches of each kind hold, measured after a GC,
// is within 10 % of their SizeBytes. Until the fixed part — the sketch, its
// plan and the table headers — was charged, a one-table sketch of 5 344 B
// went 768 B uncharged.
func TestSketchSizeBytesMatchesHeap(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow memory is in the heap")
	}
	_, bob := workload.PlantedSetsOfSets(3, 200, 10, 1<<32, 16)
	heap := func() int64 {
		runtime.GC() // twice: what a sync.Pool sheds survives one collection
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, sh := range []keyShape{{"cold", 10, false}, {"child-keyed", 1024, true}} {
		p := Params{S: 200, H: sh.h, U: 1 << 32}
		for _, kind := range oneRoundKinds {
			requireKeys(t, kind, p, 16, 0, sh.childKeyed)
			sks := make([]*BobSketch, 400)
			before := heap()
			var charged int64
			for i := range sks {
				sks[i] = mustSketch(t, kind, hashing.NewCoins(uint64(i)), bob, p, 16)
				charged += sks[i].SizeBytes()
			}
			held := heap() - before
			if ratio := float64(charged) / float64(held); ratio < 0.9 || ratio > 1.1 {
				t.Errorf("%s kind %d: 400 sketches of %d tables charge %d B and hold %d B of heap (%.2f)", sh.name, kind, len(sks[0].tables), charged, held, ratio)
			}
			t.Logf("%s kind %d: %d tables, %d B a sketch charged, %d B held", sh.name, kind, len(sks[0].tables), charged/400, held/400)
			runtime.KeepAlive(sks)
		}
	}
}
