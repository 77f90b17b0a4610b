package iblt

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
)

// The reference path: the definition of a key's cells and checksum spelled
// out with one HashBytes per key — index i is i·per + hi64(Mix64(h +
// (i+1)·φ)·per), the checksum the low 32 bits of Mix64(h ^ checksumSalt) —
// and a peel that checks purity, then hashes the key again for its indexes,
// and takes the key only if they include its cell. The tests below hold the
// kernel to it cell for cell.

func refHash(t *Table, key []byte) (idx []int, cs uint32) {
	h := hashing.HashBytes(t.seed, key)
	per := uint64(t.cells / t.k)
	for i := 0; i < t.k; i++ {
		hi, _ := bits.Mul64(prng.Mix64(h+uint64(i+1)*0x9e3779b97f4a7c15), per)
		idx = append(idx, i*int(per)+int(hi))
	}
	return idx, uint32(prng.Mix64(h ^ 0x635f73756d5f6b65))
}

func refIndexes(t *Table, key []byte) []int {
	idx, _ := refHash(t, key)
	return idx
}

func refChecksum(t *Table, key []byte) uint32 {
	_, cs := refHash(t, key)
	return cs
}

func refUpdate(t *Table, key []byte, delta int32) {
	idx, cs := refHash(t, key)
	for _, c := range idx {
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
	return refChecksum(t, t.keySums[c*t.width:(c+1)*t.width]) == t.checks[c]
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
		if !slices.Contains(refIndexes(t, key), c) {
			continue
		}
		sign := t.counts[c]
		if sign == 1 {
			added = append(added, key)
		} else {
			removed = append(removed, key)
		}
		cs := refChecksum(t, key)
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

// TestOnePassTablesMatchReference: tables built and peeled by the kernel
// equal the reference cell for cell — word-width and wide keys, k = 3, 4
// and 5, a decode that completes and one that stalls (same keys peeled in the
// same order, same cells left).
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

// TestCellSetCollisionRate: two random keys share all k cells at the rate
// per^-k of k independent hashes, within a binomial bound, at 4, 8 and 16
// cells a partition (the sizes child tables run at). A derivation whose k
// indexes are correlated fails it: the linear h₁ + i·h₂ shares all four
// cells about 3, 12 and 50 times as often at these sizes.
func TestCellSetCollisionRate(t *testing.T) {
	const k, pairs = 4, 200_000
	src := prng.New(0x636f6c6c)
	for _, per := range []int{4, 8, 16} {
		tab := NewUint64(k*per, k, src.Uint64())
		var a [k]int
		shared := 0
		for i := 0; i < pairs; i++ {
			idx, _ := tab.wordHashes(src.Uint64())
			copy(a[:], idx)
			idx, _ = tab.wordHashes(src.Uint64())
			if slices.Equal(a[:], idx) {
				shared++
			}
		}
		p := math.Pow(float64(per), -k)
		mean, sd := pairs*p, math.Sqrt(pairs*p*(1-p))
		t.Logf("%2d cells a partition: %d of %d pairs share all %d cells (%.1e; independent %.1e)", per, shared, pairs, k, float64(shared)/pairs, p)
		if math.Abs(float64(shared)-mean) > 6*sd+1 {
			t.Errorf("%d cells a partition: %d of %d pairs share all %d cells, want %.1f ± %.1f", per, shared, pairs, k, mean, 6*sd+1)
		}
	}
}

// TestNewAllAndCloneAllMatchNew: the tables of one arena are, each, what New
// builds — shape defaults and rounding included — and stay independent: a
// key inserted into one appears in that one alone, appending cannot reach a
// neighbour (only the last table, which has none, holds the arenas' size-class
// slack), and a clone equals its source and then moves without it.
func TestNewAllAndCloneAllMatchNew(t *testing.T) {
	shapes := []Shape{{Cells: 10, Width: 8, Seed: 1}, {Cells: 33, Width: 51, K: 3, Seed: 2}, {Cells: 1, Width: 272, K: 5, Seed: 3}, {Cells: 64, Width: 8, K: 4, Seed: 4}}
	all := NewAll(shapes)
	for i, sh := range shapes {
		if want := New(sh.Cells, sh.Width, sh.K, sh.Seed); !bytes.Equal(all[i].AppendMarshal(nil), want.AppendMarshal(nil)) {
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
		if i == len(all)-1 {
			break
		}
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
