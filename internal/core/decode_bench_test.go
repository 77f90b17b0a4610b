package core

import (
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/workload"
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

// BenchmarkTable1 times nested's and cascade's encode and decode at Table 1's
// shape, (48, 16 384, u = 16 384), and d = 16, drawn as cmd/sosbench draws it:
// a RandomDatabase at density 1/2, Alice's copy with d bits flipped. Every
// plan there keys child sets by child IBLTs. The name keeps it out of CI's
// 100-pass Decode step; the bench smoke runs it once.
func BenchmarkTable1(b *testing.B) {
	const d = 16
	db := workload.RandomDatabase(1, 48, 16384, 0.5, nil)
	alice, bob := workload.FlipBits(db, d, prng.New(2)).SetsOfSets(), db.SetsOfSets()
	p, err := Params{S: 48, H: 16384, U: 16384}.normalized()
	if err != nil {
		b.Fatal(err)
	}
	coins, dHat := hashing.NewCoins(42), DHat(d, p.S)
	for _, kind := range []struct {
		name string
		kind DigestKind
	}{{"nested", DigestNested}, {"cascade", DigestCascade}} {
		requireKeys(b, kind.kind, p, d, dHat, true)
		msg, err := AliceMsg(kind.kind, coins, alice, p, d, dHat)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AliceMsg(kind.kind, coins, alice, p, d, dHat); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(kind.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ApplyMsg(kind.kind, coins, msg, bob, p, d, dHat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
