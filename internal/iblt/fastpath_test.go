package iblt

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sosr/internal/prng"
)

// TestWordPathMatchesBytePath: the uint64 fast path must produce tables
// byte-identical to the generic byte-key path, since one table routinely sees
// both (e.g. Alice inserts words, Bob deletes serialized candidates).
func TestWordPathMatchesBytePath(t *testing.T) {
	src := prng.New(101)
	fast := NewUint64(96, 0, 7)
	slow := NewUint64(96, 0, 7)
	for i := 0; i < 500; i++ {
		x := src.Uint64()
		var buf [WordWidth]byte
		binary.LittleEndian.PutUint64(buf[:], x)
		if i%3 == 0 {
			fast.DeleteUint64(x)
			slow.Delete(buf[:])
		} else {
			fast.InsertUint64(x)
			slow.Insert(buf[:])
		}
	}
	if !bytes.Equal(fast.Marshal(), slow.Marshal()) {
		t.Fatal("word-key fast path diverges from byte-key path")
	}
}

// TestDecodeUint64MatchesGenericDecode: the native word peel must recover the
// same difference as the byte peel.
func TestDecodeUint64MatchesGenericDecode(t *testing.T) {
	src := prng.New(202)
	for trial := 0; trial < 20; trial++ {
		a := NewUint64(CellsFor(64), 0, src.Uint64())
		want := map[uint64]int32{}
		for i := 0; i < 64; i++ {
			x := src.Uint64()
			if i%2 == 0 {
				a.InsertUint64(x)
				want[x] = 1
			} else {
				a.DeleteUint64(x)
				want[x] = -1
			}
		}
		// Generic path: byte-decode the same content.
		bb := a.Clone()
		added, removed, err := a.DecodeUint64()
		if err != nil {
			t.Fatalf("trial %d: native decode: %v", trial, err)
		}
		gAdded, gRemoved, err := bb.Decode()
		if err != nil {
			t.Fatalf("trial %d: generic decode: %v", trial, err)
		}
		if len(added) != len(gAdded) || len(removed) != len(gRemoved) {
			t.Fatalf("trial %d: native (%d,%d) vs generic (%d,%d)",
				trial, len(added), len(removed), len(gAdded), len(gRemoved))
		}
		for _, x := range added {
			if want[x] != 1 {
				t.Fatalf("trial %d: spurious added key %d", trial, x)
			}
		}
		for _, x := range removed {
			if want[x] != -1 {
				t.Fatalf("trial %d: spurious removed key %d", trial, x)
			}
		}
	}
}

// TestWordUpdateAllocationFree: the headline PR-4 property — inserting and
// deleting word keys allocates nothing.
func TestWordUpdateAllocationFree(t *testing.T) {
	tbl := NewUint64(1024, 0, 3)
	src := prng.New(5)
	if n := testing.AllocsPerRun(1000, func() {
		x := src.Uint64()
		tbl.InsertUint64(x)
		tbl.DeleteUint64(x)
	}); n != 0 {
		t.Fatalf("word insert+remove allocates %.1f times per op, want 0", n)
	}
	if !tbl.IsEmpty() {
		t.Fatal("DeleteUint64 did not cancel InsertUint64")
	}
}

// TestByteUpdateAllocationFree: the byte-key path reuses the per-table index
// scratch, so steady-state updates allocate nothing either.
func TestByteUpdateAllocationFree(t *testing.T) {
	tbl := New(256, 64, 0, 9)
	key := tbl.FuzzSeededKey(77)
	if n := testing.AllocsPerRun(1000, func() {
		tbl.Insert(key)
		tbl.Delete(key)
	}); n != 0 {
		t.Fatalf("byte insert+delete allocates %.1f times per op, want 0", n)
	}
}

// TestAppendMarshalReuse: marshals into a reused buffer allocate nothing at
// steady state and match Marshal byte-for-byte.
func TestAppendMarshalReuse(t *testing.T) {
	tbl := NewUint64(128, 0, 11)
	for i := uint64(0); i < 50; i++ {
		tbl.InsertUint64(i * 977)
	}
	want := tbl.Marshal()
	buf := make([]byte, 0, tbl.SerializedSize())
	if got := tbl.AppendMarshal(buf[:0]); !bytes.Equal(got, want) {
		t.Fatal("AppendMarshal diverges from Marshal")
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = tbl.AppendMarshal(buf[:0])
	}); n != 0 {
		t.Fatalf("AppendMarshal into a sized buffer allocates %.1f times, want 0", n)
	}
}

// TestResetReusable: a Reset table encodes exactly like a fresh one.
func TestResetReusable(t *testing.T) {
	fresh := NewUint64(64, 0, 13)
	reused := NewUint64(64, 0, 13)
	for i := uint64(0); i < 100; i++ {
		reused.InsertUint64(i)
	}
	reused.Reset()
	for i := uint64(1000); i < 1050; i++ {
		fresh.InsertUint64(i)
		reused.InsertUint64(i)
	}
	if !bytes.Equal(fresh.Marshal(), reused.Marshal()) {
		t.Fatal("Reset table diverges from a fresh table")
	}
}

// TestNegateMatchesSerializedNegation: Negate flips counts exactly like the
// old marshal/flip/unmarshal round trip the strata merge used.
func TestNegateMatchesSerializedNegation(t *testing.T) {
	tbl := NewUint64(64, 0, 17)
	for i := uint64(0); i < 30; i++ {
		tbl.InsertUint64(i * 3)
	}
	neg := tbl.Clone()
	neg.Negate()
	buf := tbl.Marshal()
	cellBytes := 4 + tbl.Width() + 8
	for c := 0; c < tbl.Cells(); c++ {
		off := headerSize + c*cellBytes
		v := int32(binary.LittleEndian.Uint32(buf[off:]))
		binary.LittleEndian.PutUint32(buf[off:], uint32(-v))
	}
	want, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(neg.Marshal(), want.Marshal()) {
		t.Fatal("Negate diverges from serialized negation")
	}
}
