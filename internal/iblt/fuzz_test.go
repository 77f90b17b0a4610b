package iblt

import (
	"bytes"
	"testing"

	"sosr/internal/prng"
)

// Robustness tests: corrupted or malicious serialized tables must never
// panic — they either fail to parse, fail to decode, or decode to keys that
// downstream verification hashes reject.

func TestUnmarshalCorruptionNeverPanics(t *testing.T) {
	src := prng.New(1)
	base := NewUint64(32, 0, 7)
	for i := uint64(0); i < 20; i++ {
		base.InsertUint64(i * 977)
	}
	buf := base.Marshal()
	for trial := 0; trial < 500; trial++ {
		corrupt := append([]byte(nil), buf...)
		// Flip 1-8 random bytes.
		for f := 0; f <= src.Intn(8); f++ {
			corrupt[src.Intn(len(corrupt))] ^= byte(1 + src.Intn(255))
		}
		tab, err := Unmarshal(corrupt)
		if err != nil {
			continue
		}
		// Decoding a corrupt table must not panic; errors are fine.
		_, _, _ = tab.Decode()
	}
}

func TestUnmarshalRandomGarbageNeverPanics(t *testing.T) {
	src := prng.New(2)
	for trial := 0; trial < 500; trial++ {
		n := src.Intn(256)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(src.Uint64())
		}
		tab, err := Unmarshal(buf)
		if err != nil {
			continue
		}
		_, _, _ = tab.Decode()
	}
}

func TestUnmarshalHostileHeader(t *testing.T) {
	// Headers claiming absurd sizes must be rejected, not allocated.
	hostile := make([]byte, 20)
	// k=1, cells=2^31-ish, width=2^31-ish.
	hostile[0] = 1
	for i := 4; i < 12; i++ {
		hostile[i] = 0xff
	}
	if _, err := Unmarshal(hostile); err == nil {
		t.Fatal("hostile header accepted")
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
	buf := a.Marshal()
	for i := 40; i < len(buf); i += 7 {
		buf[i] ^= 0x55
	}
	b, err := Unmarshal(buf)
	if err != nil {
		t.Skip("corruption made table unparseable (fine)")
	}
	c := NewUint64(32, 0, 9)
	if err := c.Subtract(b); err != nil {
		return
	}
	_, _, _ = c.Decode() // must terminate without panic
}

// FuzzLoadCells feeds arbitrary bytes to LoadCells, which a decoder calls on
// a table it has shaped from its own plan, so the shape and count width here
// are arbitrary too. Either the buffer is refused, or the loaded table
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
		f.Add(word.AppendCells(nil, int(cb)), uint8(12), uint8(WordWidth), uint8(0), cb, uint64(3))
	}
	f.Add(wide.AppendCells(nil, 4), uint8(10), uint8(20), uint8(3), uint8(4), uint64(9)) // a -1 count needs 4 bytes
	f.Add(word.AppendCells(nil, 2), uint8(12), uint8(WordWidth), uint8(0), uint8(3), uint64(3))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, buf []byte, cells, width, k, countBytes uint8, seed uint64) {
		tab := New(int(cells), max(1, int(width)), int(k%8), seed)
		if err := tab.LoadCells(buf, int(countBytes)); err != nil {
			return
		}
		if got := tab.AppendCells(nil, int(countBytes)); !bytes.Equal(got, buf) {
			t.Fatalf("loaded cells re-encode to %x, not %x", got, buf)
		}
		_, _, _ = tab.Decode()
	})
}
