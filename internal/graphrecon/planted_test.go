package graphrecon

import (
	"testing"

	"sosr/internal/graph"
	"sosr/internal/prng"
	"sosr/internal/transport"

	"sosr/internal/hashing"
)

func TestPlantedSeparatedProperty(t *testing.T) {
	src := prng.New(11)
	for _, d := range []int{1, 2, 3} {
		n := 96 * (d + 3)
		g, h, err := PlantedSeparated(n, d, 0.4, src)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !IsSeparated(g, h, d+1, 2*d+1) {
			t.Fatalf("d=%d: generator returned unseparated graph", d)
		}
		if g.N != n {
			t.Fatalf("wrong vertex count")
		}
	}
}

func TestPlantedSeparatedRejectsTinyN(t *testing.T) {
	src := prng.New(12)
	if _, _, err := PlantedSeparated(40, 2, 0.4, src); err == nil {
		t.Fatal("tiny n accepted")
	}
}

func TestPlantedSurvivesPerturbation(t *testing.T) {
	// The whole point: after d total edge flips the protocol preconditions
	// still hold (top order stable, conforming matching unique).
	src := prng.New(13)
	d := 2
	g, h, err := PlantedSeparated(480, d, 0.4, src)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		ga, _ := graph.Perturb(g, 1, src)
		gb, _ := graph.Perturb(g, 1, src)
		sess := transport.New()
		rec, _, err := DegreeOrderingRecon(sess, hashing.NewCoins(uint64(trial)+70), ga, gb,
			DegreeOrderParams{H: h, D: d})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !graph.IsIsomorphic(rec, ga) {
			t.Fatalf("trial %d: wrong recovery", trial)
		}
	}
}

func TestSeparationRateHonestGnp(t *testing.T) {
	// Regression guard for the E11b finding: laptop-scale honest G(n, 1/2)
	// is essentially never separated. If this starts passing with a high
	// rate, the separation checker has broken.
	src := prng.New(14)
	rate, _ := SeparationRate(256, 0.5, 2, 3, 32, 5, src)
	if rate > 0.5 {
		t.Fatalf("separation rate %.2f suspiciously high; checker regression?", rate)
	}
}

func TestMinNeighborhoodDisjointnessGrowsWithN(t *testing.T) {
	src := prng.New(15)
	small := MinNeighborhoodDisjointness(graph.Gnp(64, 0.5, src), 48)
	large := MinNeighborhoodDisjointness(graph.Gnp(256, 0.5, src), 192)
	if large <= small {
		t.Fatalf("disjointness did not grow with n: %d -> %d", small, large)
	}
}

func TestDegreeOrderLabelingConformance(t *testing.T) {
	// On an unperturbed pair, Bob's derived labeling must match Alice's
	// exactly (all signatures identical).
	src := prng.New(16)
	g, h, err := PlantedSeparated(480, 2, 0.4, src)
	if err != nil {
		t.Fatal(err)
	}
	top, rest, sigs := new(graphWork).degreeOrderSignatures(g, h)
	var alice, bob graphWork // one workspace per party: each holds its labelling
	parent, err := alice.signatureParent(sigs)
	if err != nil {
		t.Fatal(err)
	}
	labelA := alice.degreeOrderLabeling(top, rest, sigs, parent)
	labelB, err := bob.bobDegreeOrderLabeling(top, rest, sigs, parent, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := range labelA {
		if labelA[v] != labelB[v] {
			t.Fatalf("labeling mismatch at vertex %d: %d vs %d", v, labelA[v], labelB[v])
		}
	}
	// Labels must form a permutation of 0..n-1.
	seen := make([]bool, g.N)
	for _, l := range labelA {
		if l < 0 || l >= g.N || seen[l] {
			t.Fatal("labeling is not a permutation")
		}
		seen[l] = true
	}
}

func TestLabeledEdgeSetRoundTrip(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(2, 4)
	label := []int{4, 3, 2, 1, 0}
	keys := new(graphWork).labeledEdgeSet(g, label)
	if len(keys) != 2 {
		t.Fatalf("%d edge keys", len(keys))
	}
	for _, k := range keys {
		u, v := edgeFromKey(k)
		if u > v {
			t.Fatal("edge key not normalized")
		}
	}
}

func TestSigRank(t *testing.T) {
	sorted := [][]uint64{{1}, {1, 2}, {3}}
	if sigRank(sorted, []uint64{1, 2}) != 1 {
		t.Fatal("rank of existing signature wrong")
	}
	if sigRank(sorted, []uint64{0}) != 0 {
		t.Fatal("rank before all wrong")
	}
	if sigRank(sorted, []uint64{9}) != 3 {
		t.Fatal("rank after all wrong")
	}
}
