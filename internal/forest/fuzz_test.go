package forest

import (
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
)

// FuzzForestApply feeds arbitrary signature and meta frames to Bob's §6 half:
// the cascade payload is parsed into a pooled workspace and the recovered
// collection — packed words, multiplicity tags, the vertex count — is the
// peer's to choose. Whatever arrives must end in an error or a valid forest;
// a count field must not size an allocation, and a signature graph with a
// cycle must not recurse without end.
func FuzzForestApply(f *testing.F) {
	// A small, shallow instance keeps the payload — and an execution — small.
	fa := Random(30, 0.3, prng.New(41))
	fb := Perturb(fa, 1, prng.New(43))
	p, params := Plan(Measure(fa), Measure(fb), ReconParams{D: 1})
	coins := hashing.NewCoins(9)
	sig, meta, err := AliceMsg(coins, fa, p, params)
	if err != nil {
		f.Fatal(err)
	}
	if rec, err := Apply(coins, fb, p, params, sig, meta); err != nil || !IsIsomorphic(rec, fa) {
		f.Fatalf("seed exchange does not reconcile: %v", err)
	}
	f.Add(sig, meta)
	f.Add([]byte{}, meta)
	f.Add(sig, []byte{})
	f.Add(sig, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // a vertex count no shape allows
	f.Add(sig, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	for _, cut := range []int{4, 9, 30, len(sig) / 2, len(sig) - 8, len(sig) - 1} {
		f.Add(sig[:cut], meta)
	}
	for _, at := range []int{0, 4, 8, 13, 21, 40, len(sig) / 3, len(sig) / 2, len(sig) - 9, len(sig) - 1} {
		flipped := append([]byte(nil), sig...)
		flipped[at] ^= 0x04
		f.Add(flipped, meta)
	}
	f.Fuzz(func(t *testing.T, sig, meta []byte) {
		rec, err := Apply(coins, fb, p, params, sig, meta)
		if err != nil {
			return
		}
		if rec == nil {
			t.Fatal("nil forest without error")
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("rebuilt forest is invalid: %v", err)
		}
	})
}
