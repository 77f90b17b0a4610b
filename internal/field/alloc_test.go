package field

import "testing"

// TestRootsAllocBudget: a Roots call works in one scratch buffer sized from
// the degree, so its allocations do not scale with the ~61 squarings of each
// modular power or with the number of splits (it was ~1 000 at degree 16).
func TestRootsAllocBudget(t *testing.T) {
	roots := make([]uint64, 16)
	for i := range roots {
		roots[i] = uint64(1000*i + 7)
	}
	p := FromRoots(roots)
	got := testing.AllocsPerRun(20, func() {
		if _, err := Roots(p, 42); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Roots(deg 16) allocs/op: %.0f", got)
	if got > 8 {
		t.Fatalf("Roots(deg 16) allocates %.0f/op, budget 8", got)
	}
}
