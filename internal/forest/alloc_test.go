package forest

import (
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
)

// TestForestReconAllocBudget: child lists, signatures, M_v collections and
// the rebuild all work in per-call arenas, so the §6 round trip no longer
// allocates per vertex (encode + decode was ~9 000 at n=600).
func TestForestReconAllocBudget(t *testing.T) {
	fa := Random(600, 0.2, prng.New(41))
	fb := Perturb(fa, 3, prng.New(43))
	p, params := Plan(Measure(fa), Measure(fb), ReconParams{D: 3, Sigma: 16})
	coins := hashing.NewCoins(9)
	got := testing.AllocsPerRun(5, func() {
		sig, meta, err := AliceMsg(coins, fa, p, params)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Apply(coins, fb, p, params, sig, meta); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("forest AliceMsg+Apply(n=600) allocs/op: %.0f", got)
	if got > 400 {
		t.Fatalf("forest round trip allocates %.0f/op, budget 400", got)
	}
}
