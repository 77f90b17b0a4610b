package iblt

import (
	"bytes"
	"slices"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
)

// The reference path: the table kernel as it was before the one-pass hash —
// k separate index hashes and a separate checksum per update, and a peel that
// checks purity, then recomputes the checksum, then the indexes. The tests
// below hold the one-pass path to it cell for cell.

func refIndexes(t *Table, key []byte) []int {
	per := t.cells / t.k
	out := make([]int, 0, t.k)
	for i := 0; i < t.k; i++ {
		h := hashing.HashBytes(t.seed+uint64(i)*0x9e3779b97f4a7c15+1, key)
		out = append(out, i*per+int(h%uint64(per)))
	}
	return out
}

func refUpdate(t *Table, key []byte, delta int32) {
	cs := hashing.HashBytes(t.seed^checksumSalt, key)
	for _, c := range refIndexes(t, key) {
		t.counts[c] += delta
		for i, x := range key {
			t.keySums[c*t.width+i] ^= x
		}
		t.checks[c] ^= cs
	}
}

func refPurable(t *Table, c int) bool {
	if t.counts[c] != 1 && t.counts[c] != -1 {
		return false
	}
	return hashing.HashBytes(t.seed^checksumSalt, t.keySums[c*t.width:(c+1)*t.width]) == t.checks[c]
}

// refDecode peels in the order Decode always has: a stack seeded with the
// pure cells in index order.
func refDecode(t *Table) (added, removed [][]byte, ok bool) {
	var queue []int
	for c := 0; c < t.cells; c++ {
		if refPurable(t, c) {
			queue = append(queue, c)
		}
	}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !refPurable(t, c) {
			continue
		}
		key := bytes.Clone(t.keySums[c*t.width : (c+1)*t.width])
		sign := t.counts[c]
		if sign == 1 {
			added = append(added, key)
		} else {
			removed = append(removed, key)
		}
		cs := hashing.HashBytes(t.seed^checksumSalt, key)
		for _, ci := range refIndexes(t, key) {
			t.counts[ci] -= sign
			for i, x := range key {
				t.keySums[ci*t.width+i] ^= x
			}
			t.checks[ci] ^= cs
			if refPurable(t, ci) {
				queue = append(queue, ci)
			}
		}
	}
	return added, removed, t.IsEmpty()
}

func sameCells(a, b *Table) bool {
	return slices.Equal(a.counts, b.counts) && bytes.Equal(a.keySums, b.keySums) && slices.Equal(a.checks, b.checks)
}

// TestOnePassTablesMatchReference: tables built and peeled through the
// one-pass hash equal the reference cell for cell — word-width and wide keys,
// the fixed-arity k = 4 path and the generic one, a decode that completes and
// one that stalls (same keys peeled in the same order, same cells left).
func TestOnePassTablesMatchReference(t *testing.T) {
	src := prng.New(0x6f6e6570617373)
	partial := 0 // decodes that peeled some keys and then stalled
	for _, k := range []int{3, 4, 5} {
		for _, width := range []int{8, 51, 272} {
			for _, load := range []int{5, 34, 100} { // 40 cells: 5 keys peel, 34 stall part-way or not at all, 100 stall at once
				got := New(40, width, k, src.Uint64())
				ref := New(40, width, k, got.seed)
				for i := 0; i < load; i++ {
					key := got.FuzzSeededKey(src.Uint64())
					if i%3 == 2 {
						got.Delete(key)
						refUpdate(ref, key, -1)
					} else {
						got.Insert(key)
						refUpdate(ref, key, 1)
					}
				}
				if !sameCells(got, ref) {
					t.Fatalf("k=%d width=%d load=%d: built tables differ", k, width, load)
				}
				// Both decode entry points, each against its own reference copy.
				packed, refP := got.Clone(), ref.Clone()
				wantAdd, wantRem, wantOK := refDecode(ref)
				add, rem, err := got.Decode()
				if (err == nil) != wantOK || !sameCells(got, ref) {
					t.Fatalf("k=%d width=%d load=%d: Decode err=%v, reference ok=%v, cells equal=%v", k, width, load, err, wantOK, sameCells(got, ref))
				}
				if (load == 5 && !wantOK) || (load == 100 && wantOK) {
					t.Fatalf("k=%d width=%d load=%d: reference decode ok=%v, the case is mis-sized", k, width, load, wantOK)
				}
				if !wantOK && len(wantAdd)+len(wantRem) > 0 {
					partial++
				}
				eq := func(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }
				if !eq(add, wantAdd) || !eq(rem, wantRem) {
					t.Fatalf("k=%d width=%d load=%d: Decode peeled other keys, or in another order, than the reference", k, width, load)
				}
				var d PackedDiff
				err = packed.DecodePacked(&d)
				refDecode(refP)
				if (err == nil) != wantOK || !sameCells(packed, refP) || !eq(d.Added, wantAdd) || !eq(d.Removed, wantRem) {
					t.Fatalf("k=%d width=%d load=%d: DecodePacked differs from the reference", k, width, load)
				}
				if got.PeelCount() != len(wantAdd)+len(wantRem) {
					t.Fatalf("k=%d width=%d load=%d: PeelCount %d, reference peeled %d", k, width, load, got.PeelCount(), len(wantAdd)+len(wantRem))
				}
			}
		}
	}
	if partial == 0 {
		t.Fatal("no case stalled part-way through a peel")
	}
}

// TestNewAllAndCloneAllMatchNew: the tables of one arena are, each, what New
// builds — shape defaults and rounding included — and stay independent: a
// key inserted into one appears in that one alone, appending cannot reach a
// neighbour, and a clone equals its source and then moves without it.
func TestNewAllAndCloneAllMatchNew(t *testing.T) {
	shapes := []Shape{{Cells: 10, Width: 8, Seed: 1}, {Cells: 33, Width: 51, K: 3, Seed: 2}, {Cells: 1, Width: 272, K: 5, Seed: 3}, {Cells: 64, Width: 8, K: 4, Seed: 4}}
	all := NewAll(shapes)
	for i, sh := range shapes {
		if want := New(sh.Cells, sh.Width, sh.K, sh.Seed); !bytes.Equal(all[i].Marshal(), want.Marshal()) {
			t.Fatalf("table %d: NewAll differs from New(%+v)", i, sh)
		}
	}
	for i, tab := range all {
		key := tab.FuzzSeededKey(uint64(i))
		tab.Insert(key)
		for j, other := range all {
			if (j == i) == other.IsEmpty() {
				t.Fatalf("insert into table %d: table %d empty = %v", i, j, other.IsEmpty())
			}
		}
		tab.Delete(key)
		if cap(tab.counts) != tab.cells || cap(tab.keySums) != tab.cells*tab.width || cap(tab.checks) != tab.cells || cap(tab.idx) != tab.k {
			t.Fatalf("table %d: a slice's capacity reaches past its share", i)
		}
	}
	for i, tab := range all {
		tab.Insert(tab.FuzzSeededKey(uint64(100 + i)))
	}
	clones := CloneAll(all)
	for i := range all {
		if !sameCells(clones[i], all[i]) || clones[i].seed != all[i].seed || clones[i].k != all[i].k || clones[i].width != all[i].width {
			t.Fatalf("table %d: clone differs from its source", i)
		}
		clones[i].Insert(clones[i].FuzzSeededKey(7))
		if sameCells(clones[i], all[i]) {
			t.Fatalf("table %d: clone shares cells with its source", i)
		}
	}
}
