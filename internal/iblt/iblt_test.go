package iblt

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"

	"sosr/internal/prng"
)

func TestInsertDecodeRoundTrip(t *testing.T) {
	tab := NewUint64(64, 0, 42)
	want := []uint64{1, 2, 3, 100, 1 << 50}
	for _, x := range want {
		tab.InsertUint64(x)
	}
	added, removed, err := tab.DecodeUint64()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("unexpected removed: %v", removed)
	}
	if !sameSet(added, want) {
		t.Fatalf("decoded %v, want %v", added, want)
	}
}

func TestDeleteYieldsNegativeKeys(t *testing.T) {
	tab := NewUint64(64, 0, 42)
	tab.DeleteUint64(7)
	tab.DeleteUint64(9)
	added, removed, err := tab.DecodeUint64()
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 0 || !sameSet(removed, []uint64{7, 9}) {
		t.Fatalf("added=%v removed=%v", added, removed)
	}
}

func TestSubtractYieldsSymmetricDifference(t *testing.T) {
	seed := uint64(7)
	a := NewUint64(96, 0, seed)
	b := NewUint64(96, 0, seed)
	for x := uint64(0); x < 1000; x++ {
		a.InsertUint64(x)
	}
	for x := uint64(5); x < 1005; x++ {
		b.InsertUint64(x)
	}
	if err := a.Subtract(b); err != nil {
		t.Fatal(err)
	}
	added, removed, err := a.DecodeUint64()
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(added, []uint64{0, 1, 2, 3, 4}) {
		t.Fatalf("added = %v", added)
	}
	if !sameSet(removed, []uint64{1000, 1001, 1002, 1003, 1004}) {
		t.Fatalf("removed = %v", removed)
	}
}

func TestSubtractShapeMismatch(t *testing.T) {
	a := NewUint64(64, 0, 1)
	b := NewUint64(128, 0, 1)
	if err := a.Subtract(b); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	c := NewUint64(64, 0, 2)
	if err := a.Subtract(c); err == nil {
		t.Fatal("expected seed mismatch error")
	}
}

func TestDecodeFailureDetected(t *testing.T) {
	// Way more keys than cells: peeling must stall and report it.
	tab := NewUint64(12, 0, 3)
	for x := uint64(0); x < 500; x++ {
		tab.InsertUint64(x)
	}
	_, _, err := tab.Decode()
	if err == nil {
		t.Fatal("expected decode failure")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	tab := New(40, 24, 4, 99)
	src := prng.New(8)
	var keys [][]byte
	for i := 0; i < 10; i++ {
		k := tab.FuzzSeededKey(src.Uint64())
		keys = append(keys, k)
		tab.Insert(k)
	}
	buf := tab.Marshal()
	if len(buf) != tab.SerializedSize() {
		t.Fatalf("marshal size %d != %d", len(buf), tab.SerializedSize())
	}
	back, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	added, removed, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 || len(added) != len(keys) {
		t.Fatalf("decoded %d/%d", len(added), len(removed))
	}
	sort.Slice(added, func(i, j int) bool { return bytes.Compare(added[i], added[j]) < 0 })
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	for i := range keys {
		if !bytes.Equal(added[i], keys[i]) {
			t.Fatal("key mismatch after round trip")
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected truncated header error")
	}
	tab := NewUint64(16, 0, 1)
	buf := tab.Marshal()
	if _, err := Unmarshal(buf[:len(buf)-4]); err == nil {
		t.Fatal("expected truncated body error")
	}
}

func TestVectorKeys(t *testing.T) {
	tab := New(48, 100, 0, 5)
	keyA := tab.FuzzSeededKey(1)
	keyB := tab.FuzzSeededKey(2)
	tab.Insert(keyA)
	tab.Insert(keyB)
	tab.Delete(keyA)
	added, removed, err := tab.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 || len(added) != 1 || !bytes.Equal(added[0], keyB) {
		t.Fatalf("added=%v removed=%v", added, removed)
	}
}

func TestInsertDeleteCancels(t *testing.T) {
	tab := NewUint64(32, 0, 11)
	for x := uint64(0); x < 100; x++ {
		tab.InsertUint64(x)
	}
	for x := uint64(0); x < 100; x++ {
		tab.DeleteUint64(x)
	}
	if !tab.IsEmpty() {
		t.Fatal("table not empty after cancel")
	}
}

func TestCellsRoundedToMultipleOfK(t *testing.T) {
	tab := New(10, 8, 4, 0)
	if tab.Cells()%4 != 0 {
		t.Fatalf("cells %d not multiple of 4", tab.Cells())
	}
	if tab.Cells() < 10 {
		t.Fatalf("cells %d below request", tab.Cells())
	}
}

func TestCellsForMonotone(t *testing.T) {
	prev := 0
	for d := 1; d < 1000; d *= 2 {
		c := CellsFor(d)
		if c < prev {
			t.Fatalf("CellsFor not monotone at %d", d)
		}
		if c < d {
			t.Fatalf("CellsFor(%d) = %d < d", d, c)
		}
		prev = c
	}
}

func TestDecodeSuccessRateAtRecommendedSize(t *testing.T) {
	// Empirical check of Theorem 2.1's "O(m) keys decode whp": at
	// CellsFor(d) cells, d random keys should decode nearly always.
	src := prng.New(123)
	for _, d := range []int{1, 4, 16, 64, 256} {
		fails := 0
		const trials = 50
		for trial := 0; trial < trials; trial++ {
			tab := NewUint64(CellsFor(d), 0, src.Uint64())
			seen := map[uint64]bool{}
			for i := 0; i < d; i++ {
				x := src.Uint64()
				for seen[x] {
					x = src.Uint64()
				}
				seen[x] = true
				tab.InsertUint64(x)
			}
			if _, _, err := tab.Decode(); err != nil {
				fails++
			}
		}
		if fails > trials/10 {
			t.Errorf("d=%d: %d/%d decode failures at recommended size", d, fails, trials)
		}
	}
}

func TestSubtractEqualSetsIsEmpty(t *testing.T) {
	f := func(keys []uint64) bool {
		a := NewUint64(32, 0, 9)
		b := NewUint64(32, 0, 9)
		for _, k := range keys {
			a.InsertUint64(k)
			b.InsertUint64(k)
		}
		if err := a.Subtract(b); err != nil {
			return false
		}
		return a.IsEmpty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodePreservesMultiplicityOfDifference(t *testing.T) {
	// Keys inserted twice (count 2) cannot be peeled as pure; ensure decode
	// detects the stall rather than emitting wrong keys.
	tab := NewUint64(32, 0, 13)
	tab.InsertUint64(5)
	tab.InsertUint64(5)
	_, _, err := tab.Decode()
	if err == nil {
		t.Fatal("expected stall on duplicate key")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := NewUint64(32, 0, 1)
	a.InsertUint64(1)
	b := a.Clone()
	b.InsertUint64(2)
	addedA, _, err := a.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(addedA) != 1 {
		t.Fatalf("clone leaked into original: %v", addedA)
	}
}

func TestInsertTouchesHashCountCells(t *testing.T) {
	a := NewUint64(8, 0, 1)
	a.InsertUint64(42)
	nonzero := 0
	for _, count := range a.counts {
		if count != 0 {
			nonzero++
		}
	}
	if nonzero != a.HashCount() {
		t.Fatalf("expected %d nonzero cells, got %d", a.HashCount(), nonzero)
	}
}

func sameSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[uint64]int{}
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
	}
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return true
}
