package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"sosr/internal/hashing"
	"sosr/internal/setutil"
)

// FuzzApplyMsg feeds arbitrary payloads to Bob's one-round entry point for
// every protocol kind: the scratch-reuse receive paths must reject malformed
// bodies with an error — never panic, index out of range, or loop — even when
// widths, level counts, or framing lie about themselves.
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
	for si, np := range shapes {
		for _, tc := range []struct {
			kind       DigestKind
			firstCount int // table header, parent count; cascade adds t and the frame length
		}{{DigestNested, 20 + 4}, {DigestCascade, 4 + 4 + 20 + 4}} {
			msg, err := AliceMsg(tc.kind, coins, alice, np, d, dHat)
			if err != nil {
				f.Fatal(err)
			}
			sel := byte(si<<4) | byte(tc.kind)
			f.Add(sel, msg)
			saturated := append([]byte(nil), msg...)
			for i := 0; i < countBytesFor(np.H); i++ {
				saturated[tc.firstCount+i] = 0xff
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

// FuzzApplyDigest feeds arbitrary digests to ApplyDigest, so S, H, U, d and d̂
// in the 45-byte header are the attacker's: never a panic, never a nil result
// without an error.
func FuzzApplyDigest(f *testing.F) {
	coins, alice, bob := hashing.NewCoins(21), fuzzAlice, fuzzBob
	for _, kind := range oneRoundKinds {
		for _, p := range fuzzShapes {
			for _, d := range []int{1, 4, 40} {
				digest, err := BuildDigest(kind, coins, alice, p, d, 0)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(digest)
			}
		}
	}
	f.Fuzz(func(t *testing.T, digest []byte) {
		res, err := ApplyDigest(digest, coins, bob)
		if err == nil && res == nil {
			t.Fatal("nil result without error")
		}
	})
}

// TestHostileDigestHeaders: an honest body of each kind under a header whose
// S, H, U, d or d̂ is enormous ends as an error or a verified result before
// anything sized by the header is allocated — the table's own key-width check
// comes first — so each takes microseconds, not the gigabytes a 2⁴⁰-element
// list key would.
func TestHostileDigestHeaders(t *testing.T) {
	coins, alice, bob := hashing.NewCoins(21), fuzzAlice, fuzzBob
	fields := []struct {
		name string
		off  int
		val  uint64
	}{{"S", 5, 1 << 40}, {"H", 13, 1 << 40}, {"U", 21, 1 << 59}, {"d", 29, 1 << 39}, {"dHat", 37, 1 << 39}}
	var slowest time.Duration
	defer func() { t.Logf("slowest hostile header: %v", slowest) }()
	for _, kind := range oneRoundKinds {
		honest, err := BuildDigest(kind, coins, alice, Params{S: 8, H: 8}, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 1; mask < 1<<len(fields); mask++ {
			digest, name := bytes.Clone(honest), ""
			for i, fl := range fields {
				if mask&(1<<i) != 0 {
					binary.LittleEndian.PutUint64(digest[fl.off:], fl.val)
					name += fl.name + " "
				}
			}
			start := time.Now()
			res, err := ApplyDigest(digest, coins, bob)
			took := time.Since(start)
			slowest = max(slowest, took)
			if err == nil && !setutil.EqualSetOfSets(res.Recovered, alice) {
				t.Errorf("kind %d, hostile %s: a wrong result without error", kind, name)
			}
			if took > 50*time.Millisecond {
				t.Errorf("kind %d, hostile %s: took %v — something was sized by the header", kind, name, took)
			}
		}
	}
}
