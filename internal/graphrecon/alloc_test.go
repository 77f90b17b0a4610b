package graphrecon

import (
	"slices"
	"testing"

	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/raceflag"
)

// TestDegreeOrderAllocBudget: signatures live in one arena per graph and each
// half runs on one pooled workspace, so the §5.1 round trip allocates what it
// returns — Alice's two payloads and their struct, Bob's recovered graph, and
// the Result the signature reconciliation hands back inside — and nothing
// per vertex, per level or per edge (Alice + Apply was ~4 800 at n=480
// before the arenas, 58 before the workspace).
func TestDegreeOrderAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds workspaces under the race detector")
	}
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
	if got > 16 {
		t.Fatalf("degree-order round trip allocates %.0f/op, budget 16", got)
	}
}

// BenchmarkNeighborhoodApply is Bob's §5.2 half at the benchmark's instance:
// G(128, 0.5), M = 96, one edit.
func BenchmarkNeighborhoodApply(b *testing.B) {
	src := prng.New(5)
	var gb *graph.Graph
	for {
		if gb = graph.Gnp(128, 0.5, src); MinNeighborhoodDisjointness(gb, 96) >= 9 {
			break
		}
	}
	ga, _ := graph.Perturb(gb, 1, src)
	p := NeighborhoodParams{M: 96, D: 1}
	sideA, errA := NeighborhoodEncode(ga, p.M)
	sideB, errB := NeighborhoodEncode(gb, p.M)
	if errA != nil || errB != nil {
		b.Fatal(errA, errB)
	}
	maxSig := max(sideA.MaxSig, sideB.MaxSig)
	coins := hashing.NewCoins(3)
	msgs, err := NeighborhoodAlice(coins, ga, p, sideA, maxSig)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NeighborhoodApply(coins, gb, p, sideB, maxSig, msgs.Sig, msgs.Edges); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabeledEdgeSet is the labelled edge set of the benchmark's degree
// leg (n = 480, ≈ 17 400 edges): read off relabelled bit rows, and by the
// sort-and-compact it replaced.
func BenchmarkLabeledEdgeSet(b *testing.B) {
	src := prng.New(31)
	g, _, err := PlantedSeparated(480, 2, 0.4, src)
	if err != nil {
		b.Fatal(err)
	}
	label := src.Perm(g.N)
	b.Run("bitrows", func(b *testing.B) {
		var w graphWork
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.labeledEdgeSet(g, label)
		}
	})
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := make([]uint64, 0, g.EdgeCount())
			for u := 0; u < g.N; u++ {
				g.EachNeighbor(u, func(v int) {
					if u < v {
						out = append(out, edgeKey(label[u], label[v]))
					}
				})
			}
			slices.Sort(out)
			_ = slices.Compact(out)
		}
	})
}
