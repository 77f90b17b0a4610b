package iblt

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"sosr/internal/prng"
)

// Robustness tests: corrupted or malicious serialized tables must never
// panic — they either fail to parse, fail to decode, or decode to keys that
// downstream verification hashes reject. They parse the way every decoder
// does, through UnmarshalInto on one reused table with the hash count and
// seed of its plan, and a refused buffer must leave that table as it was.

// unmarshalChecked parses buf into into and fails t if a refusal changed it.
func unmarshalChecked(t *testing.T, into *Table, buf []byte, k int, seed uint64) error {
	t.Helper()
	before := into.AppendMarshal(nil)
	err := into.UnmarshalInto(buf, k, seed)
	if err != nil && !bytes.Equal(into.AppendMarshal(nil), before) {
		t.Fatalf("a refused table (%v) changed the receiver", err)
	}
	return err
}

func TestUnmarshalCorruptionNeverPanics(t *testing.T) {
	src := prng.New(1)
	base := NewUint64(32, 0, 7)
	for i := uint64(0); i < 20; i++ {
		base.InsertUint64(i * 977)
	}
	buf := base.AppendMarshal(nil)
	into := NewUint64(8, 0, 7)
	for trial := 0; trial < 500; trial++ {
		corrupt := append([]byte(nil), buf...)
		// Flip 1-8 random bytes.
		for f := 0; f <= src.Intn(8); f++ {
			corrupt[src.Intn(len(corrupt))] ^= byte(1 + src.Intn(255))
		}
		if unmarshalChecked(t, into, corrupt, DefaultHashCount, 7) != nil {
			continue
		}
		// Decoding a corrupt table must not panic; errors are fine.
		var work Table
		work.CopyFrom(into)
		_, _, _ = work.Decode()
	}
}

func TestUnmarshalRandomGarbageNeverPanics(t *testing.T) {
	src := prng.New(2)
	into := NewUint64(8, 0, 3)
	for trial := 0; trial < 500; trial++ {
		n := src.Intn(256)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(src.Uint64())
		}
		// Half the time the header carries the expected hash count and seed,
		// so the garbage reaches the shape checks and the cells.
		if n >= headerSize && trial%2 == 0 {
			binary.LittleEndian.PutUint32(buf[0:], DefaultHashCount)
			binary.LittleEndian.PutUint32(buf[4:], uint32(DefaultHashCount*(1+src.Intn(8))))
			binary.LittleEndian.PutUint32(buf[8:], uint32(1+src.Intn(8)))
			binary.LittleEndian.PutUint64(buf[12:], 3)
		}
		if unmarshalChecked(t, into, buf, DefaultHashCount, 3) != nil {
			continue
		}
		var work Table
		work.CopyFrom(into)
		_, _, _ = work.Decode()
	}
}

func TestUnmarshalHostileHeader(t *testing.T) {
	into := NewUint64(8, 0, 7)
	// Headers claiming absurd sizes must be rejected, not allocated.
	hostile := make([]byte, 20)
	// k=1, cells=2^31-ish, width=2^31-ish.
	hostile[0] = 1
	for i := 4; i < 12; i++ {
		hostile[i] = 0xff
	}
	if unmarshalChecked(t, into, hostile, 1, 0) == nil {
		t.Fatal("hostile header accepted")
	}
	// A valid table re-headed with k = cells, or with a foreign seed, is
	// refused before it is shaped: the plan fixes both.
	valid := NewUint64(32, 0, 7)
	valid.InsertUint64(42)
	buf := valid.AppendMarshal(nil)
	if err := unmarshalChecked(t, into, buf, DefaultHashCount, 7); err != nil {
		t.Fatal(err)
	}
	wide := slices.Clone(buf)
	binary.LittleEndian.PutUint32(wide[0:], uint32(valid.Cells()))
	foreign := slices.Clone(buf)
	binary.LittleEndian.PutUint64(foreign[12:], 8)
	for name, b := range map[string][]byte{"k = cells": wide, "foreign seed": foreign} {
		if unmarshalChecked(t, into, b, DefaultHashCount, 7) == nil {
			t.Fatalf("%s: re-headed table accepted", name)
		}
	}
}

func TestSubtractedCorruptTablesDecodeSafely(t *testing.T) {
	// Subtracting a corrupt-but-parseable table yields garbage cells; the
	// checksum guard must prevent bogus peels from looping forever.
	src := prng.New(3)
	a := NewUint64(32, 0, 9)
	for i := 0; i < 10; i++ {
		a.InsertUint64(src.Uint64())
	}
	buf := a.AppendMarshal(nil)
	for i := 40; i < len(buf); i += 7 {
		buf[i] ^= 0x55
	}
	var b Table
	if err := b.UnmarshalInto(buf, DefaultHashCount, 9); err != nil {
		t.Skip("corruption made table unparseable (fine)")
	}
	c := NewUint64(32, 0, 9)
	if err := c.Subtract(&b); err != nil {
		return
	}
	_, _, _ = c.Decode() // must terminate without panic
}

// FuzzLoadCells feeds arbitrary bytes to LoadCells, which a decoder calls on
// a table it has shaped from its own plan, so the shape and the count and
// key-sum widths here are arbitrary too. Either the buffer is refused, or the loaded table
// re-encodes to the same bytes and its Decode terminates.
func FuzzLoadCells(f *testing.F) {
	word := New(12, WordWidth, 0, 3)
	for i := uint64(0); i < 5; i++ {
		word.InsertUint64(i*977 + 1)
	}
	wide := New(10, 20, 3, 9)
	for i := byte(0); i < 4; i++ {
		wide.Insert(bytes.Repeat([]byte{i + 1}, 20))
	}
	wide.Delete(bytes.Repeat([]byte{7}, 20))
	for _, cb := range []uint8{1, 2, 4} {
		f.Add(word.AppendCells(nil, int(cb), WordWidth), uint8(12), uint8(WordWidth), uint8(0), cb, uint8(WordWidth), uint64(3))
	}
	// 4-byte key sums beside the 4-byte checksums: a child table over a
	// 32-bit universe.
	narrow := New(12, WordWidth, 0, 5)
	for i := uint64(0); i < 5; i++ {
		narrow.InsertUint64(i*977 + 1<<31)
	}
	f.Add(narrow.AppendCells(nil, 1, 4), uint8(12), uint8(WordWidth), uint8(0), uint8(1), uint8(4), uint64(5))
	f.Add(narrow.AppendCells(nil, 1, 4), uint8(12), uint8(WordWidth), uint8(0), uint8(1), uint8(3), uint64(5))
	f.Add(wide.AppendCells(nil, 4, 20), uint8(10), uint8(20), uint8(3), uint8(4), uint8(20), uint64(9)) // a -1 count needs 4 bytes
	f.Add(word.AppendCells(nil, 2, WordWidth), uint8(12), uint8(WordWidth), uint8(0), uint8(3), uint8(WordWidth), uint64(3))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, buf []byte, cells, width, k, countBytes, sumBytes uint8, seed uint64) {
		tab := New(int(cells), max(1, int(width)), int(k%8), seed)
		if err := tab.LoadCells(buf, int(countBytes), int(sumBytes)); err != nil {
			return
		}
		if got := tab.AppendCells(nil, int(countBytes), int(sumBytes)); !bytes.Equal(got, buf) {
			t.Fatalf("loaded cells re-encode to %x, not %x", got, buf)
		}
		_, _, _ = tab.Decode()
	})
}
