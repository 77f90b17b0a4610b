package graphrecon

import (
	"testing"

	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/prng"
)

// TestDegreeOrderAllocBudget: signatures live in one arena per graph, so the
// §5.1 round trip no longer allocates per vertex (Alice + Apply was ~4 800 at
// n=480). What remains is the cascade encode and decode of the signature
// parent and the two edge IBLTs.
func TestDegreeOrderAllocBudget(t *testing.T) {
	src := prng.New(31)
	base, h, err := PlantedSeparated(480, 2, 0.4, src)
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := graph.Perturb(base, 1, src)
	gb, _ := graph.Perturb(base, 1, src)
	p := DegreeOrderParams{H: h, D: 2}
	coins := hashing.NewCoins(7)
	got := testing.AllocsPerRun(5, func() {
		msgs, err := DegreeOrderAlice(coins, ga, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DegreeOrderApply(coins, gb, p, msgs.Sig, msgs.Edges); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DegreeOrderAlice+Apply(n=480, h=%d) allocs/op: %.0f", h, got)
	if got > 200 {
		t.Fatalf("degree-order round trip allocates %.0f/op, budget 200", got)
	}
}
