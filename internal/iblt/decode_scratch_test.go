package iblt

import (
	"bytes"
	"slices"
	"testing"

	"sosr/internal/prng"
)

// Decode-side scratch reuse: steady-state decode loops must be allocation
// free, mirroring the encode-side guarantees in fastpath_test.go.

// TestUnmarshalIntoMatchesUnmarshal: a table encoded and parsed back into a
// dirty scratch of another shape is its source again, cell for cell, and
// peels to the source's keys.
func TestUnmarshalIntoMatchesUnmarshal(t *testing.T) {
	src := prng.New(31)
	orig := NewUint64(CellsFor(32), 0, 5)
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = src.Uint64()
		orig.InsertUint64(keys[i])
	}
	buf := orig.AppendMarshal(nil)
	var reused Table
	// Pre-dirty the scratch with a different shape to prove Reshape clears it.
	reused.Reshape(128, 24, 0, 99)
	reused.Insert(make([]byte, 24))
	if err := reused.UnmarshalInto(buf, DefaultHashCount, 5); err != nil {
		t.Fatal(err)
	}
	if reused.k != orig.k || reused.cells != orig.cells || reused.width != orig.width || reused.seed != orig.seed ||
		!slices.Equal(reused.counts, orig.counts) || !bytes.Equal(reused.keySums, orig.keySums) || !slices.Equal(reused.checks, orig.checks) {
		t.Fatal("UnmarshalInto state diverges from the source table")
	}
	small := NewUint64(CellsFor(4), 0, 5)
	for _, x := range keys[:3] {
		small.InsertUint64(x)
	}
	if err := reused.UnmarshalInto(small.AppendMarshal(nil), DefaultHashCount, 5); err != nil {
		t.Fatal(err)
	}
	added, removed, err := reused.AppendDecodeUint64(nil, nil)
	if err != nil || len(removed) != 0 || !sameSet(added, keys[:3]) {
		t.Fatalf("round trip peels %v/%v (%v), want %v", added, removed, err, keys[:3])
	}
}

func TestUnmarshalIntoAllocationFree(t *testing.T) {
	src := prng.New(32)
	orig := NewUint64(CellsFor(64), 0, 9)
	for i := 0; i < 300; i++ {
		orig.InsertUint64(src.Uint64())
	}
	buf := orig.AppendMarshal(nil)
	var scratch Table
	if err := scratch.UnmarshalInto(buf, DefaultHashCount, 9); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := scratch.UnmarshalInto(buf, DefaultHashCount, 9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("UnmarshalInto allocates %.1f/op after warmup, want 0", allocs)
	}
}

func TestAppendDecodeUint64AllocationFree(t *testing.T) {
	src := prng.New(33)
	keys := make([]uint64, 48)
	for i := range keys {
		keys[i] = src.Uint64()
	}
	build := func(dst *Table) {
		dst.Reshape(CellsFor(len(keys)), WordWidth, 0, 4)
		for i, x := range keys {
			if i%2 == 0 {
				dst.InsertUint64(x)
			} else {
				dst.DeleteUint64(x)
			}
		}
	}
	var tab Table
	add := make([]uint64, 0, len(keys))
	rem := make([]uint64, 0, len(keys))
	build(&tab)
	if _, _, err := tab.AppendDecodeUint64(add, rem); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		build(&tab)
		var err error
		if _, _, err = tab.AppendDecodeUint64(add[:0], rem[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rebuild+AppendDecodeUint64 allocates %.1f/op, want 0", allocs)
	}
}

func TestDecodePackedMatchesDecode(t *testing.T) {
	src := prng.New(34)
	width := 24
	mk := func() *Table {
		tab := New(CellsFor(20), width, 0, 8)
		s := prng.New(77)
		for i := 0; i < 20; i++ {
			key := make([]byte, width)
			for j := range key {
				key[j] = byte(s.Uint64())
			}
			if i%3 == 0 {
				tab.Delete(key)
			} else {
				tab.Insert(key)
			}
		}
		return tab
	}
	_ = src
	want := mk()
	wAdd, wRem, err := want.Decode()
	if err != nil {
		t.Fatal(err)
	}
	var d PackedDiff
	if err := mk().DecodePacked(&d); err != nil {
		t.Fatal(err)
	}
	asSet := func(keys [][]byte) map[string]bool {
		m := make(map[string]bool, len(keys))
		for _, k := range keys {
			m[string(k)] = true
		}
		return m
	}
	wa, wr := asSet(wAdd), asSet(wRem)
	ga, gr := asSet(d.Added), asSet(d.Removed)
	if len(wa) != len(ga) || len(wr) != len(gr) {
		t.Fatalf("packed decode sizes (%d,%d) != generic (%d,%d)", len(ga), len(gr), len(wa), len(wr))
	}
	for k := range wa {
		if !ga[k] {
			t.Fatal("packed decode missing an added key")
		}
	}
	for k := range wr {
		if !gr[k] {
			t.Fatal("packed decode missing a removed key")
		}
	}
}

func TestDecodePackedAllocationFree(t *testing.T) {
	width := 16
	key := func(i int) []byte {
		k := make([]byte, width)
		k[0], k[1] = byte(i), byte(i>>8)
		return k
	}
	keys := make([][]byte, 24)
	for i := range keys {
		keys[i] = key(i + 1)
	}
	var tab Table
	build := func() {
		tab.Reshape(CellsFor(len(keys)), width, 0, 3)
		for i, k := range keys {
			if i%2 == 0 {
				tab.Insert(k)
			} else {
				tab.Delete(k)
			}
		}
	}
	var d PackedDiff
	build()
	if err := tab.DecodePacked(&d); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		build()
		if err := tab.DecodePacked(&d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rebuild+DecodePacked allocates %.1f/op, want 0", allocs)
	}
}

func TestDecodePackedBoundedOnCorruptTable(t *testing.T) {
	// A corrupt table whose cells stay "purable" forever must hit the peel
	// bound and fail, not loop or overrun the arena.
	tab := NewUint64(16, 0, 2)
	for i := 0; i < 64; i++ {
		tab.InsertUint64(uint64(i))
	}
	buf := tab.AppendMarshal(nil)
	// Corrupt every checksum so purability checks misfire unpredictably.
	for c := 0; c < tab.Cells(); c++ {
		off := headerSize + c*(4+WordWidth+checkBytes) + 4 + WordWidth
		buf[off] ^= 0xff
	}
	var mangled Table
	if err := mangled.UnmarshalInto(buf, DefaultHashCount, 2); err != nil {
		t.Fatal(err)
	}
	var d PackedDiff
	if err := mangled.DecodePacked(&d); err == nil {
		// Failing to decode is expected; succeeding is fine too as long as it
		// terminated — the bound is what's under test.
		t.Log("corrupt table decoded cleanly (acceptable; bound not exercised)")
	}
}

func TestPeelCountReported(t *testing.T) {
	tab := NewUint64(CellsFor(8), 0, 6)
	for i := 0; i < 8; i++ {
		tab.InsertUint64(uint64(i + 1))
	}
	if _, _, err := tab.DecodeUint64(); err != nil {
		t.Fatal(err)
	}
	if got := tab.PeelCount(); got != 8 {
		t.Fatalf("PeelCount = %d after peeling 8 keys", got)
	}
}

func TestCopyFromMatchesClone(t *testing.T) {
	src := prng.New(35)
	orig := NewUint64(CellsFor(16), 0, 11)
	for i := 0; i < 100; i++ {
		orig.InsertUint64(src.Uint64())
	}
	var cp Table
	cp.CopyFrom(orig)
	if !bytes.Equal(orig.AppendMarshal(nil), cp.AppendMarshal(nil)) {
		t.Fatal("CopyFrom state diverges from source")
	}
	// Mutating the copy must not touch the original.
	cp.InsertUint64(42)
	if bytes.Equal(orig.AppendMarshal(nil), cp.AppendMarshal(nil)) {
		t.Fatal("CopyFrom aliases source storage")
	}
}
