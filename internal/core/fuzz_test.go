package core

import (
	"testing"

	"sosr/internal/hashing"
)

// FuzzApplyMsg feeds arbitrary payloads to Bob's one-round entry point for
// every protocol kind: the scratch-reuse receive paths must reject malformed
// bodies with an error — never panic, index out of range, or loop — even when
// a length, a count or a key lies about itself.
func FuzzApplyMsg(f *testing.F) {
	coins, alice, bob := hashing.NewCoins(21), fuzzAlice, fuzzBob
	// The kind byte's high nibble picks the instance shape, so the fuzzer
	// reaches every child count width (1, 2 and 4 bytes); the first eleven
	// seeds predate the widths and stay on shape 0.
	// The wide shapes take a small universe so naive keys stay a 128-byte
	// bitmap instead of an 8·H-byte list per cell.
	var shapes []Params
	for _, p := range fuzzShapes {
		np, err := p.normalized()
		if err != nil {
			f.Fatal(err)
		}
		shapes = append(shapes, np)
	}
	const d = 4
	dHat := DHat(d, shapes[0].S)
	for _, kind := range oneRoundKinds {
		msg, err := AliceMsg(kind, coins, alice, shapes[0], d, dHat)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(kind), msg)
		f.Add(byte(kind), msg[:len(msg)/2])
		mangled := append([]byte(nil), msg...)
		mangled[len(mangled)/4] ^= 0x08
		f.Add(byte(kind), mangled)
	}
	f.Add(byte(0), []byte{})
	f.Add(byte(9), make([]byte, 40))
	// Header-less child keys at each count width: intact, with the first
	// child count inside the first parent cell's key sum saturated (a count
	// no honest child can carry), and one byte short (every key misaligned).
	// The message starts with the first parent cell's count.
	for si, np := range shapes {
		for _, kind := range []DigestKind{DigestNested, DigestCascade} {
			msg, err := AliceMsg(kind, coins, alice, np, d, dHat)
			if err != nil {
				f.Fatal(err)
			}
			sel := byte(si<<4) | byte(kind)
			f.Add(sel, msg)
			saturated := append([]byte(nil), msg...)
			for i := 0; i < countBytesFor(np.H); i++ {
				saturated[countBytesFor(np.S)+i] = 0xff
			}
			f.Add(sel, saturated)
			f.Add(sel, msg[1:])
		}
	}
	// One sketch per (kind, shape), built outside the fuzz body.
	sketches := map[DigestKind][]*BobSketch{}
	for _, kind := range oneRoundKinds {
		for _, np := range shapes {
			sk, err := NewBobSketch(kind, coins, bob, np, d, dHat)
			if err != nil {
				f.Fatal(err)
			}
			sketches[kind] = append(sketches[kind], sk)
		}
	}
	f.Fuzz(func(t *testing.T, sel byte, body []byte) {
		kind, si := DigestKind(sel&0x0f), int(sel>>4)%len(shapes)
		res, err := ApplyMsg(kind, coins, body, bob, shapes[si], d, dHat)
		if err == nil && res == nil {
			t.Fatal("nil result without error")
		}
		// The cached path must be exactly as robust.
		if sks := sketches[kind]; sks != nil {
			res, err = ApplyMsgCached(kind, coins, body, bob, shapes[si], d, dHat, sks[si])
			if err == nil && res == nil {
				t.Fatal("nil cached result without error")
			}
		}
	})
}

// The fuzz targets' parties, and their instance shapes: every child count
// width (1, 2 and 4 bytes), list and bitmap naive keys.
var (
	fuzzAlice = [][]uint64{{1, 2, 3}, {9}, {20, 22}}
	fuzzBob   = [][]uint64{{1, 2, 3}, {9, 10}, {31}}
)

var fuzzShapes = []Params{{S: 8, H: 8}, {S: 8, H: 300, U: 1 << 10}, {S: 8, H: 70000, U: 1 << 10}}
