package setutil

import (
	"slices"
	"testing"
	"testing/quick"

	"sosr/internal/prng"
)

func TestCanonical(t *testing.T) {
	got := Canonical([]uint64{5, 1, 5, 3, 1})
	want := []uint64{1, 3, 5}
	if !Equal(got, want) {
		t.Fatalf("canonical = %v", got)
	}
	if !IsCanonical(got) {
		t.Fatal("IsCanonical rejects canonical output")
	}
	if IsCanonical([]uint64{2, 2}) || IsCanonical([]uint64{3, 1}) {
		t.Fatal("IsCanonical accepts bad input")
	}
	if len(Canonical(nil)) != 0 {
		t.Fatal("canonical of nil not empty")
	}
}

// diff returns a \ b and b \ a for canonical sets, element by element: the
// oracle the merge-based kernels are checked against.
func diff(a, b []uint64) (onlyA, onlyB []uint64) {
	for _, x := range a {
		if !Contains(b, x) {
			onlyA = append(onlyA, x)
		}
	}
	for _, y := range b {
		if !Contains(a, y) {
			onlyB = append(onlyB, y)
		}
	}
	return onlyA, onlyB
}

func TestSymmetricDiffAndDiff(t *testing.T) {
	a := []uint64{1, 2, 3, 10}
	b := []uint64{2, 3, 4}
	if SymmetricDiff(a, b) != 3 {
		t.Fatalf("symdiff = %d", SymmetricDiff(a, b))
	}
	onlyA, onlyB := diff(a, b)
	if !Equal(onlyA, []uint64{1, 10}) || !Equal(onlyB, []uint64{4}) {
		t.Fatalf("diff = %v / %v", onlyA, onlyB)
	}
}

func TestSymmetricDiffProperties(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		a, b := Canonical(xs), Canonical(ys)
		// Symmetry and identity.
		if SymmetricDiff(a, b) != SymmetricDiff(b, a) {
			return false
		}
		if SymmetricDiff(a, a) != 0 {
			return false
		}
		// Consistency with Diff.
		onlyA, onlyB := diff(a, b)
		return SymmetricDiff(a, b) == len(onlyA)+len(onlyB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDiffRoundTrip(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		a, b := Canonical(xs), Canonical(ys)
		onlyA, onlyB := diff(a, b)
		// b + onlyA - onlyB == a.
		return Equal(ApplyDiff(b, onlyA, onlyB), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	a := []uint64{1, 5, 9}
	if !Contains(a, 5) || Contains(a, 4) || Contains(nil, 0) {
		t.Fatal("Contains broken")
	}
}

func TestHashOrderInvariantViaCanonical(t *testing.T) {
	a := Canonical([]uint64{3, 1, 2})
	b := Canonical([]uint64{2, 3, 1})
	if Hash(7, a) != Hash(7, b) {
		t.Fatal("hash differs on equal canonical sets")
	}
	if Hash(7, a) == Hash(8, a) {
		t.Fatal("seed ignored")
	}
	if Hash(7, []uint64{1}) == Hash(7, []uint64{2}) {
		t.Fatal("trivial collision")
	}
}

func TestSortAndLessSets(t *testing.T) {
	ss := [][]uint64{{2}, {1, 5}, {1, 2}, {}}
	SortSets(ss)
	if len(ss[0]) != 0 || !Equal(ss[1], []uint64{1, 2}) || !Equal(ss[2], []uint64{1, 5}) || !Equal(ss[3], []uint64{2}) {
		t.Fatalf("sorted = %v", ss)
	}
	if !LessSets([]uint64{1}, []uint64{1, 0}) {
		t.Fatal("prefix not less")
	}
	if LessSets([]uint64{2}, []uint64{1, 9}) {
		t.Fatal("ordering wrong")
	}
}

func TestEqualSetOfSets(t *testing.T) {
	a := [][]uint64{{1, 2}, {3}}
	b := [][]uint64{{3}, {1, 2}}
	if !EqualSetOfSets(a, b) {
		t.Fatal("order of child sets should not matter")
	}
	c := [][]uint64{{3}, {1, 4}}
	if EqualSetOfSets(a, c) {
		t.Fatal("unequal sets match")
	}
	if EqualSetOfSets(a, [][]uint64{{1, 2}}) {
		t.Fatal("different child counts match")
	}
}

func TestHashSetOfSetsInvariance(t *testing.T) {
	a := [][]uint64{{1, 2}, {3}}
	b := [][]uint64{{3}, {1, 2}}
	if HashSetOfSets(5, a) != HashSetOfSets(5, b) {
		t.Fatal("parent hash order sensitive")
	}
	c := [][]uint64{{3}, {1, 2, 9}}
	if HashSetOfSets(5, a) == HashSetOfSets(5, c) {
		t.Fatal("parent hash collision")
	}
}

func TestTotalSize(t *testing.T) {
	if TotalSize([][]uint64{{1, 2}, {}, {3}}) != 3 {
		t.Fatal("TotalSize wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []uint64{1, 2}
	b := Clone(a)
	b[0] = 99
	if a[0] == 99 {
		t.Fatal("clone aliases")
	}
	ss := [][]uint64{{1}, {2}}
	cs := CloneSets(ss)
	cs[0][0] = 42
	if ss[0][0] == 42 {
		t.Fatal("CloneSets aliases")
	}
}

// TestCanonicalSetsMatchesCanonical: the arena form is child-for-child what
// Canonical returns, whatever mix of empty, duplicate-laden, unsorted and
// already-canonical children comes in.
func TestCanonicalSetsMatchesCanonical(t *testing.T) {
	check := func(parent [][]uint64) bool {
		got := CanonicalSets(parent)
		if len(got) != len(parent) {
			return false
		}
		for i, cs := range parent {
			if !slices.Equal(got[i], Canonical(cs)) {
				return false
			}
		}
		return true
	}
	fixed := [][][]uint64{
		nil,
		{},
		{nil, {}, nil},
		{{1, 2, 3}, {4, 5}},           // already canonical
		{{3, 3, 3}, {}, {2, 1, 2, 1}}, // duplicates around an empty child
		{{9, 1}, {1, 2, 3}, {7, 7}, nil, {5}},
	}
	for _, p := range fixed {
		if !check(p) {
			t.Fatalf("CanonicalSets(%v) = %v", p, CanonicalSets(p))
		}
	}
	// Small element range, so random children collide and repeat often.
	if err := quick.Check(func(raw [][]uint8) bool {
		parent := make([][]uint64, len(raw))
		for i, cs := range raw {
			for _, x := range cs {
				parent[i] = append(parent[i], uint64(x%16))
			}
		}
		return check(parent)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalSetsIsolation: the children share one array but not each
// other's fate — overwriting one and appending to it reaches neither the
// caller's input nor any other child.
func TestCanonicalSetsIsolation(t *testing.T) {
	input := [][]uint64{{1, 2, 3}, {6, 5, 4, 4}, {}, {7, 8}}
	snapshot := CloneSets(input)
	got := CanonicalSets(input)
	want := CloneSets(got)
	for i := range got {
		for j := range got[i] {
			got[i][j] = 99
		}
		_ = append(got[i], 1000, 1001)
		for j := range got {
			if j != i && !slices.Equal(got[j], want[j]) {
				t.Fatalf("writing to child %d changed child %d: %v", i, j, got[j])
			}
		}
		copy(got[i], want[i])
	}
	for i := range input {
		if !slices.Equal(input[i], snapshot[i]) {
			t.Fatalf("input child %d changed: %v", i, input[i])
		}
	}
}

// TestCanonicalViews: canonical input comes back as the very slice, with
// nothing allocated; input with one child out of order (or one unsorted set)
// comes back as a canonical copy, and the input is left as it was.
func TestCanonicalViews(t *testing.T) {
	set := []uint64{1, 4, 9}
	parent := [][]uint64{{1, 2}, {}, {5}}
	if got := CanonicalView(set); &got[0] != &set[0] {
		t.Fatal("CanonicalView copied a canonical set")
	}
	if got := CanonicalSetsView(parent); &got[0] != &parent[0] {
		t.Fatal("CanonicalSetsView copied a canonical parent")
	}
	if n := testing.AllocsPerRun(10, func() { CanonicalView(set); CanonicalSetsView(parent) }); n != 0 {
		t.Fatalf("views of canonical input allocate %.0f objects", n)
	}
	unsorted, messy := []uint64{4, 1, 4}, [][]uint64{{1, 2}, {3, 3, 2}}
	if got := CanonicalView(unsorted); !slices.Equal(got, []uint64{1, 4}) || !slices.Equal(unsorted, []uint64{4, 1, 4}) {
		t.Fatalf("CanonicalView(%v) = %v", unsorted, got)
	}
	if got := CanonicalSetsView(messy); !slices.Equal(got[1], []uint64{2, 3}) || &got[0][0] == &messy[0][0] || !slices.Equal(messy[1], []uint64{3, 3, 2}) {
		t.Fatalf("CanonicalSetsView(%v) = %v", messy, got)
	}
}

func TestCanonicalSetsAllocs(t *testing.T) {
	parent := make([][]uint64, 500)
	for i := range parent {
		parent[i] = []uint64{uint64(i), 3, uint64(2 * i), 3}
	}
	if got := testing.AllocsPerRun(10, func() { CanonicalSets(parent) }); got > 2 {
		t.Fatalf("CanonicalSets allocates %.0f/op for 500 children, want ≤ 2", got)
	}
}

// TestApplyDiffMatchesGeneralPath holds the linear merge a canonical base
// takes to the general path (the whole of ApplyDiff before the merge existed)
// on seeded random inputs: sorted and unsorted bases, duplicates in add,
// elements in both add and remove, removals base does not hold, empty
// arguments. Neither argument may be modified.
func TestApplyDiffMatchesGeneralPath(t *testing.T) {
	src := prng.New(0xd1ff)
	draw := func(n int, span uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = src.Uint64n(span)
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		span := uint64(8 + src.Intn(200)) // a small universe makes every overlap likely
		base := draw(src.Intn(40), span)
		if trial%3 != 0 {
			base = Canonical(base)
		}
		add, remove := draw(src.Intn(12), span), draw(src.Intn(12), span)
		if len(add) > 0 && trial%4 == 0 {
			add = append(add, add[0]) // a duplicate for certain
		}
		if len(add) > 0 && trial%5 == 0 {
			remove = append(remove, add[len(add)-1]) // add ∩ remove for certain
		}
		baseIn, addIn, removeIn := Clone(base), Clone(add), Clone(remove)
		got, want := ApplyDiff(base, add, remove), applyDiffUnsorted(base, add, remove)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: ApplyDiff(%v, +%v, -%v) = %v, general path %v", trial, base, add, remove, got, want)
		}
		if !IsCanonical(got) {
			t.Fatalf("trial %d: result %v not canonical", trial, got)
		}
		if !slices.Equal(base, baseIn) || !slices.Equal(add, addIn) || !slices.Equal(remove, removeIn) {
			t.Fatalf("trial %d: ApplyDiff modified an argument", trial)
		}
		// The scratch form appends the same set after what dst holds, and may
		// sort the differences it is given.
		if got := AppendApplyDiff([]uint64{7}, base, addIn, removeIn); got[0] != 7 || !slices.Equal(got[1:], want) {
			t.Fatalf("trial %d: AppendApplyDiff = %v, want 7 then %v", trial, got, want)
		}
	}
	// An element both added and removed ends up present, in base or not.
	if got := ApplyDiff([]uint64{1, 5, 9}, []uint64{5, 7}, []uint64{5, 7, 9}); !slices.Equal(got, []uint64{1, 5, 7}) {
		t.Fatalf("add ∩ remove: got %v, want [1 5 7]", got)
	}
}

// BenchmarkApplyDiff is the benchmark's set leg: 32 differences applied to a
// canonical 20 000-element set, by the linear merge and by the general path
// (every ApplyDiff before the merge existed).
func BenchmarkApplyDiff(b *testing.B) {
	src := prng.New(3)
	base := make([]uint64, 20000)
	for i := range base {
		base[i] = src.Uint64n(1 << 60)
	}
	base = Canonical(base)
	add, remove := make([]uint64, 16), make([]uint64, 16)
	for i := range add {
		add[i], remove[i] = src.Uint64n(1<<60), base[src.Intn(len(base))]
	}
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ApplyDiff(base, add, remove)
		}
	})
	b.Run("general", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			applyDiffUnsorted(base, add, remove)
		}
	})
}
