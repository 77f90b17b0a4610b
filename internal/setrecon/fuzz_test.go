package setrecon

import (
	"testing"

	"sosr/internal/hashing"
)

// FuzzApplyIBLTMsg feeds arbitrary bytes to Bob's IBLT entry point: malformed
// payloads must error (or verify-fail), never panic or spin — the scratch
// reuse and the bounded peel are the hardening under test.
func FuzzApplyIBLTMsg(f *testing.F) {
	coins := hashing.NewCoins(7)
	alice := []uint64{1, 5, 9, 1 << 40}
	bob := []uint64{1, 5, 10}
	good := BuildIBLTMsg(coins, alice, 4)
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	truncated := append([]byte(nil), good[:len(good)/2]...)
	f.Add(truncated)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, msg []byte) {
		res, err := ApplyIBLTMsg(coins, msg, bob)
		if err == nil && res == nil {
			t.Fatal("nil result without error")
		}
	})
}

// FuzzApplyCharPolyMsg feeds arbitrary bytes to Bob's Theorem 2.3 entry
// point, whose linear system, gcd and root extraction now run on a reused
// solver: any size claim, any evaluation (zero, ≥ P, repeated) must end in an
// error or a verified-plausible result, never a panic or a division by zero.
func FuzzApplyCharPolyMsg(f *testing.F) {
	coins := hashing.NewCoins(7)
	alice := []uint64{1, 5, 9, 14, 1 << 40}
	bob := []uint64{1, 5, 10, 14, 77}
	const d = 6
	good := EncodeCharPoly(alice, d+1)
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 8+8*(d+1)))
	for _, cut := range []int{3, 8, 16, len(good) / 2, len(good) - 8, len(good) - 1} {
		f.Add(good[:cut])
	}
	for _, at := range []int{0, 7, 8, 15, 23, len(good) / 2, len(good) - 1} {
		flipped := append([]byte(nil), good...)
		flipped[at] ^= 0x20
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, msg []byte) {
		for _, bound := range []int{d, 1, 40} {
			res, err := ApplyCharPolyMsg(coins, msg, bob, bound)
			if err == nil && res == nil {
				t.Fatal("nil result without error")
			}
		}
	})
}
