package graph

import (
	"testing"

	"sosr/internal/prng"
)

// TestIsIsomorphicAllocBudget: refinement runs over one compressed adjacency
// and one scratch buffer, so a check allocates per call, not per vertex per
// round (it was ~17 000 at n=480).
func TestIsIsomorphicAllocBudget(t *testing.T) {
	src := prng.New(5)
	a := Gnp(480, 0.4, src)
	b := a.Relabel(src.Perm(a.N))
	got := testing.AllocsPerRun(5, func() {
		if !IsIsomorphic(a, b) {
			t.Fatal("relabelled graph not isomorphic")
		}
	})
	t.Logf("IsIsomorphic(n=480) allocs/op: %.0f", got)
	if got > 30 {
		t.Fatalf("IsIsomorphic(n=480) allocates %.0f/op, budget 30", got)
	}
}
