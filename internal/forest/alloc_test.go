package forest

import (
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/raceflag"
)

// TestForestReconAllocBudget: child lists, signatures, M_v collections, the
// encoded parent and the rebuild's tables all live in one pooled workspace per
// half, so the §6 round trip allocates what it returns — Alice's two frames,
// Bob's rebuilt forest, and the Result the signature reconciliation hands
// back inside — and nothing per vertex or per level (encode + decode was
// ~9 000 at n=600 before the arenas, 129 before the workspace).
func TestForestReconAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds workspaces under the race detector")
	}
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
	if got > 15 {
		t.Fatalf("forest round trip allocates %.0f/op, budget 15", got)
	}
}
