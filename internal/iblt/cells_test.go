package iblt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sosr/internal/prng"
)

// goldenTables builds a fixed family of stand-alone tables: word and byte
// keys, odd widths, inserts and deletes (negative counts), several k.
func goldenTables() []*Table {
	var out []*Table
	for i, shape := range []struct{ cells, width, k int }{
		{16, 8, 0}, {42, 8, 3}, {30, 1, 0}, {24, 13, 0}, {20, 188, 0}, {12, 668, 5},
	} {
		t := New(shape.cells, shape.width, shape.k, uint64(1000+i))
		for x := uint64(0); x < uint64(shape.cells); x++ {
			key := t.FuzzSeededKey(x*7919 + uint64(i))
			if x%3 == 2 {
				t.Delete(key)
			} else {
				t.Insert(key)
			}
		}
		out = append(out, t)
	}
	return out
}

// TestMarshalGolden pins Marshal for stand-alone tables: set reconciliation,
// edge tables and multi-round ship Marshal, so a change here is a wire
// change. The bytes were those of the commit before AppendCells existed
// (PR 12) until protoVersion 6 narrowed every checksum to 32 bits; no cell
// index or count moved with it. protoVersion 10 moved every cell index and
// checksum (one hash per key) and no length.
func TestMarshalGolden(t *testing.T) {
	h := sha256.New()
	for _, tab := range goldenTables() {
		buf := tab.AppendMarshal(nil)
		if len(buf) != tab.SerializedSize() {
			t.Fatalf("Marshal is %d bytes, SerializedSize %d", len(buf), tab.SerializedSize())
		}
		if again := tab.AppendMarshal([]byte{0xaa}); !bytes.Equal(again[1:], buf) || again[0] != 0xaa {
			t.Fatal("AppendMarshal differs from Marshal")
		}
		h.Write(buf)
	}
	const want = "fdb9631318c8d72f9b9531a55298b4ed996f4f1e7612ab0a77959fe9360a33e3"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Marshal bytes moved: sha256 %s, want %s", got, want)
	}
}

// cellsEqual compares two tables cell for cell (shape included).
func cellsEqual(a, b *Table) bool {
	if a.cells != b.cells || a.width != b.width || a.k != b.k || a.seed != b.seed {
		return false
	}
	for c := 0; c < a.cells; c++ {
		if a.counts[c] != b.counts[c] || a.checks[c] != b.checks[c] {
			return false
		}
	}
	return bytes.Equal(a.keySums, b.keySums)
}

// TestCellsRoundTrip is the codec's defining property: for every count width
// LoadCells(AppendCells(t)) is t cell for cell, the size is CellsSize, and
// every other length or layout is refused.
func TestCellsRoundTrip(t *testing.T) {
	src := prng.New(77)
	for trial := 0; trial < 60; trial++ {
		cells, width, k := 4+src.Intn(40), 1+src.Intn(40), src.Intn(6)
		for _, cb := range []int{1, 2, 4} {
			orig := New(cells, width, k, src.Uint64())
			// Insert-only, few enough keys that every count fits one byte;
			// the 4-byte width also takes deletions (negative counts).
			for n := src.Intn(3 * cells); n > 0; n-- {
				key := orig.FuzzSeededKey(src.Uint64())
				if cb == 4 && n%4 == 0 {
					orig.Delete(key)
				} else {
					orig.Insert(key)
				}
			}
			enc := orig.AppendCells([]byte{1, 2, 3}, cb, width)
			if !bytes.Equal(enc[:3], []byte{1, 2, 3}) {
				t.Fatal("AppendCells clobbered its prefix")
			}
			enc = enc[3:]
			if want := CellsSize(cells, width, k, cb); len(enc) != want {
				t.Fatalf("cb=%d: %d bytes, CellsSize %d", cb, len(enc), want)
			}
			got := New(cells, width, k, orig.seed)
			got.Insert(got.FuzzSeededKey(1)) // stale contents must be overwritten
			if err := got.LoadCells(enc, cb, width); err != nil {
				t.Fatalf("cb=%d: %v", cb, err)
			}
			if !cellsEqual(orig, got) {
				t.Fatalf("cb=%d cells=%d width=%d k=%d: round trip changed the table", cb, cells, width, k)
			}
			for _, bad := range [][]byte{nil, enc[:len(enc)-1], append(append([]byte(nil), enc...), 0), enc[:len(enc)/2]} {
				if err := got.LoadCells(bad, cb, width); err == nil {
					t.Fatalf("cb=%d: %d-byte encoding accepted for a %d-byte shape", cb, len(bad), len(enc))
				}
			}
			if !cellsEqual(orig, got) {
				t.Fatal("a refused LoadCells modified the table")
			}
			for _, other := range []int{1, 2, 4} {
				if other != cb && got.LoadCells(enc, other, width) == nil {
					t.Fatalf("cb=%d encoding accepted at count width %d", cb, other)
				}
			}
			if got.LoadCells(enc, 3, width) == nil {
				t.Fatal("count width 3 accepted")
			}
			if got.LoadCells(enc, cb, 0) == nil || got.LoadCells(enc, cb, width+1) == nil {
				t.Fatal("a key-sum width outside 1..width accepted")
			}
		}
	}
}

// TestCellsCountBoundaries: a narrow count holds exactly [0, 256^cb); the
// first value outside panics like a wrong-width key does, because no caller
// can reach it (child sizes are bounded at every entrance).
func TestCellsCountBoundaries(t *testing.T) {
	for _, tc := range []struct {
		cb    int
		count int32
		fits  bool
	}{
		{1, 255, true}, {1, 256, false}, {1, -1, false},
		{2, 65535, true}, {2, 65536, false}, {2, -1, false},
		{4, 1 << 30, true}, {4, -5, true},
	} {
		tab := NewUint64(4, 0, 1)
		tab.counts[2] = tc.count
		var enc []byte
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			enc = tab.AppendCells(nil, tc.cb, WordWidth)
			return false
		}()
		if panicked == tc.fits {
			t.Fatalf("cb=%d count=%d: panicked=%v", tc.cb, tc.count, panicked)
		}
		if tc.fits {
			got := NewUint64(4, 0, 1)
			if err := got.LoadCells(enc, tc.cb, WordWidth); err != nil || got.counts[2] != tc.count {
				t.Fatalf("cb=%d count=%d: loaded %d (%v)", tc.cb, tc.count, got.counts[2], err)
			}
		}
	}
}

// TestCellsNarrowSums: a word table whose keys fit sumBytes round-trips
// through sumBytes-wide key sums cell for cell and decodes; one key beyond
// that range loses its high bytes, so its cells no longer match their
// checksums and the peel stalls instead of returning a truncated key.
func TestCellsNarrowSums(t *testing.T) {
	src := prng.New(78)
	for sb := 1; sb <= WordWidth; sb++ {
		limit := uint64(1)<<(8*sb) - 1
		if sb == WordWidth {
			limit = ^uint64(0)
		}
		orig := NewUint64(CellsFor(6), 0, src.Uint64())
		keys := map[uint64]bool{}
		for len(keys) < 6 {
			x := src.Uint64() & limit
			if !keys[x] {
				keys[x] = true
				orig.InsertUint64(x)
			}
		}
		enc := orig.AppendCells(nil, 1, sb)
		if want := CellsSize(orig.Cells(), sb, 0, 1); len(enc) != want {
			t.Fatalf("sb=%d: %d bytes, CellsSize %d", sb, len(enc), want)
		}
		got := NewUint64(orig.Cells(), 0, orig.seed)
		got.InsertUint64(limit) // stale high bytes must be cleared
		if err := got.LoadCells(enc, 1, sb); err != nil || !cellsEqual(orig, got) {
			t.Fatalf("sb=%d: round trip changed the table (%v)", sb, err)
		}
		if add, _, err := got.DecodeUint64(); err != nil || len(add) != len(keys) {
			t.Fatalf("sb=%d: decoded %d of %d keys (%v)", sb, len(add), len(keys), err)
		}
		if sb == WordWidth {
			continue
		}
		orig.InsertUint64(limit + 1 + src.Uint64n(1<<20))
		if err := got.LoadCells(orig.AppendCells(nil, 1, sb), 1, sb); err != nil {
			t.Fatal(err)
		}
		if _, _, err := got.DecodeUint64(); err == nil {
			t.Fatalf("sb=%d: a table holding a truncated key decoded", sb)
		}
	}
}

// TestWideKeyKernelMatchesByteLoop checks the word-wise key XOR (insert,
// delete, peel, Subtract, IsEmpty) against the byte-at-a-time definition for
// every width from 1 to 700 — multiples of 8 and not — and that none of it
// allocates.
func TestWideKeyKernelMatchesByteLoop(t *testing.T) {
	src := prng.New(5)
	for width := 1; width <= 700; width++ {
		a := New(32, width, 0, 99)
		b := New(32, width, 0, 99)
		ref := make([]byte, len(a.keySums)) // byte-loop model of a's key sums
		refB := make([]byte, len(b.keySums))
		xorRef := func(dst []byte, tab *Table, key []byte) {
			for _, c := range refIndexes(tab, key) {
				for i, x := range key {
					dst[c*width+i] ^= x
				}
			}
		}
		keys := make([][]byte, 5)
		for i := range keys {
			keys[i] = a.FuzzSeededKey(src.Uint64())
		}
		for i, key := range keys {
			a.Insert(key)
			xorRef(ref, a, key)
			if i%2 == 0 {
				b.Insert(key)
				xorRef(refB, b, key)
			}
		}
		a.Delete(keys[4])
		xorRef(ref, a, keys[4])
		if !bytes.Equal(a.keySums, ref) || !bytes.Equal(b.keySums, refB) {
			t.Fatalf("width %d: insert/delete key sums differ from the byte loop", width)
		}
		if err := a.Subtract(b); err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			ref[i] ^= refB[i]
		}
		if !bytes.Equal(a.keySums, ref) {
			t.Fatalf("width %d: Subtract key sums differ from the byte loop", width)
		}
		// a − b is {1, 3} minus {4}: it peels to exactly those and ends empty.
		added, removed, err := a.Decode()
		if err != nil || len(added) != 2 || len(removed) != 1 || !a.IsEmpty() {
			t.Fatalf("width %d: decode %d/%d %v empty=%v", width, len(added), len(removed), err, a.IsEmpty())
		}
		// IsEmpty must see a lone set bit anywhere, including the tail bytes
		// past the last full word.
		for _, pos := range []int{0, len(a.keySums) - 1, len(a.keySums) / 2} {
			a.keySums[pos] = 0x80
			if a.IsEmpty() {
				t.Fatalf("width %d: IsEmpty missed a set bit at byte %d", width, pos)
			}
			a.keySums[pos] = 0
		}
		if width%97 == 0 || width == 1 || width == 700 {
			key := keys[0]
			if n := testing.AllocsPerRun(20, func() {
				a.Insert(key)
				a.Delete(key)
				_ = a.Subtract(b)
				_ = a.Subtract(b)
				_ = a.IsEmpty()
			}); n != 0 {
				t.Fatalf("width %d: kernel allocates %.1f per run", width, n)
			}
		}
	}
}
