package core

import (
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/setutil"
)

// The multi-round steps parse peer bytes into reused memory: round 1 on the
// client, round 2 on the server (the one place the server parses a client's
// payload), round 3 on the client. Each target is seeded with a valid round,
// its truncations and bit flips, and requires an error or a usable result —
// never a panic, an allocation sized by the input, or a spin.

// mrFuzzRounds is one valid exchange over small sets, routed so that round 3
// carries both pair kinds (an IBLT for the far pair, evaluations for the
// near ones).
func mrFuzzRounds(f *testing.F) (coins hashing.Coins, p Params, alice, bob [][]uint64, msg1, msg2, msg3 []byte, st *MRBobState) {
	f.Helper()
	coins = hashing.NewCoins(33)
	alice = [][]uint64{{1, 2, 3}, {9, 11}, {20, 22, 24, 26, 28, 30, 32, 34}, {40}}
	bob = [][]uint64{{1, 2, 3}, {9, 10}, {21, 23, 25, 27, 29, 31, 33, 35}, {40}}
	var err error
	if p, err = (Params{S: 8, H: 8}).normalized(); err != nil {
		f.Fatal(err)
	}
	msg1 = MRAlice1(coins, alice, 4)
	if msg2, st, err = MRBob2(coins, bob, p, msg1); err != nil {
		f.Fatal(err)
	}
	if msg3, _, err = MRAlice3(coins, alice, p, 0, msg2); err != nil {
		f.Fatal(err)
	}
	if res, err := MRBobFinish(coins, bob, st, msg3); err != nil || !setutil.EqualSetOfSets(res.Recovered, alice) {
		f.Fatalf("seed exchange does not reconcile: %v", err)
	}
	return
}

// addMangled seeds a target with msg, its truncations and single-bit flips.
func addMangled(f *testing.F, msg []byte) {
	f.Add(msg)
	f.Add([]byte{})
	for _, cut := range []int{1, 4, 8, 20, len(msg) / 3, len(msg) / 2, len(msg) - 9, len(msg) - 1} {
		if cut >= 0 && cut < len(msg) {
			f.Add(msg[:cut])
		}
	}
	for _, at := range []int{0, 2, 5, 9, 13, 21, len(msg) / 4, len(msg) / 2, len(msg) - 10, len(msg) - 1} {
		if at >= 0 && at < len(msg) {
			flipped := append([]byte(nil), msg...)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}
}

func FuzzMRBob2(f *testing.F) {
	coins, p, _, bob, msg1, _, _, _ := mrFuzzRounds(f)
	addMangled(f, msg1)
	f.Fuzz(func(t *testing.T, msg []byte) {
		round2, st, err := MRBob2(coins, bob, p, msg)
		if err == nil && (round2 == nil || st == nil) {
			t.Fatal("nil round 2 or state without error")
		}
	})
}

func FuzzMRAlice3(f *testing.F) {
	coins, p, alice, _, _, msg2, _, _ := mrFuzzRounds(f)
	addMangled(f, msg2)
	f.Fuzz(func(t *testing.T, msg []byte) {
		for _, dTotal := range []int{0, 16} {
			round3, _, err := MRAlice3(coins, alice, p, dTotal, msg)
			if err == nil && len(round3) < 4 {
				t.Fatal("short round 3 without error")
			}
		}
	})
}

func FuzzMRBobFinish(f *testing.F) {
	coins, _, _, bob, _, _, msg3, st := mrFuzzRounds(f)
	addMangled(f, msg3)
	f.Fuzz(func(t *testing.T, msg []byte) {
		res, err := MRBobFinish(coins, bob, st, msg)
		if err == nil && res == nil {
			t.Fatal("nil result without error")
		}
	})
}
