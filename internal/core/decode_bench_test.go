package core

import (
	"testing"

	"sosr/internal/hashing"
)

// Package-level decode benchmarks, so CI's bench smoke exercises the Bob hot
// paths without the network stack: one sub-benchmark per oneRoundShapes
// entry, so both a whole-set table and child IBLT keys are timed.

func benchApply(b *testing.B, kind DigestKind, d int, cached bool) {
	for _, sh := range oneRoundShapes {
		b.Run(sh.name, func(b *testing.B) {
			alice, bob, p := decodeWorkloadAt(b, sh.h)
			coins := hashing.NewCoins(42)
			dHat := DHat(d, p.S)
			requireKeys(b, kind, p, d, dHat, sh.childKeyed)
			msg, err := AliceMsg(kind, coins, alice, p, d, dHat)
			if err != nil {
				b.Fatal(err)
			}
			var sk *BobSketch
			if cached {
				if sk, err = NewBobSketch(kind, coins, bob, p, d, dHat); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ApplyMsgCached(kind, coins, msg, bob, p, d, dHat, sk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCascadeDecode(b *testing.B)       { benchApply(b, DigestCascade, 32, false) }
func BenchmarkCascadeDecodeCached(b *testing.B) { benchApply(b, DigestCascade, 32, true) }
func BenchmarkNestedDecode(b *testing.B)        { benchApply(b, DigestNested, 16, false) }
func BenchmarkNestedDecodeCached(b *testing.B)  { benchApply(b, DigestNested, 16, true) }
