package graphrecon

import (
	"errors"
	"testing"

	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/transport"
)

// sampleDegreeOrderPair draws a planted separated base graph and two
// ≤ d/2-edge perturbations of it (the §5 model). Honest G(n,p) sampling is
// only separated at asymptotic n (see PlantedSeparated), so the protocol is
// exercised on the planted workload.
func sampleDegreeOrderPair(t *testing.T, n int, p float64, d int, seed uint64) (ga, gb *graph.Graph, h int) {
	t.Helper()
	src := prng.New(seed)
	g, h, err := PlantedSeparated(n, d, p, src)
	if err != nil {
		t.Fatalf("planted generation: %v", err)
	}
	ga, _ = graph.Perturb(g, (d+1)/2, src)
	gb, _ = graph.Perturb(g, d/2, src)
	return ga, gb, h
}

func TestDegreeOrderSignatures(t *testing.T) {
	g := graph.New(6)
	// Vertex 0 has degree 5 (hub), vertex 1 degree 2, others low.
	for v := 1; v < 6; v++ {
		g.AddEdge(0, v)
	}
	g.AddEdge(1, 2)
	top, rest, sigs := DegreeOrderSignatures(g, 2)
	if top[0] != 0 {
		t.Fatalf("top[0] = %d, want hub", top[0])
	}
	if len(sigs) != 4 || len(rest) != 4 {
		t.Fatalf("%d signatures for %d vertices, want 4", len(sigs), len(rest))
	}
	// Every non-top vertex is adjacent to the hub => signature contains 0.
	for i, s := range sigs {
		if len(s) == 0 || s[0] != 0 {
			t.Fatalf("vertex %d signature %v missing hub", rest[i], s)
		}
	}
}

func TestIsSeparatedDetectsViolations(t *testing.T) {
	// Two vertices with identical degree cannot be (h, 1, ·)-separated for
	// h covering them both with a ≥ 1... build a graph with a clear hub.
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(0, 4)
	g.AddEdge(1, 2)
	// deg: v0=4, v1=2, v2=2 → gap(v1,v2)=0 so h=2 fails with a=1.
	if IsSeparated(g, 2, 1, 1) {
		t.Fatal("separation claimed despite degree tie in top h")
	}
}

func TestDegreeOrderingRecon(t *testing.T) {
	for _, d := range []int{2, 4} {
		ga, gb, h := sampleDegreeOrderPair(t, 720, 0.4, d, uint64(d)*101+7)
		sess := transport.New()
		rec, stats, err := DegreeOrderingRecon(sess, hashing.NewCoins(uint64(d)+5), ga, gb, DegreeOrderParams{H: h, D: d})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !graph.IsIsomorphic(rec, ga) {
			t.Fatalf("d=%d: recovered graph not isomorphic to Alice's", d)
		}
		if stats.Rounds != 1 {
			t.Fatalf("d=%d: rounds = %d, want 1", d, stats.Rounds)
		}
	}
}

func TestDegreeOrderingCommunicationSublinearInEdges(t *testing.T) {
	d := 2
	ga, gb, h := sampleDegreeOrderPair(t, 720, 0.4, d, 31)
	sess := transport.New()
	_, stats, err := DegreeOrderingRecon(sess, hashing.NewCoins(77), ga, gb, DegreeOrderParams{H: h, D: d})
	if err != nil {
		t.Fatal(err)
	}
	// Sending the raw edge list would cost ~|E|·8 bytes; the protocol must
	// be far below that (Theorem 5.2: O(d(log d log h + log n)) bits).
	rawCost := ga.EdgeCount() * 8
	if stats.TotalBytes >= rawCost {
		t.Fatalf("protocol bytes %d not below raw edge transfer %d", stats.TotalBytes, rawCost)
	}
}

func TestNeighborhoodSignatures(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	// Degrees: 0:2 1:2 2:3 3:1.
	sig0 := DegreeSignature(g, 0, 3)
	if len(sig0) != 2 || sig0[0] != 2 || sig0[1] != 3 {
		t.Fatalf("sig(0) = %v", sig0)
	}
	// Threshold cuts high degrees.
	sig0cut := DegreeSignature(g, 0, 2)
	if len(sig0cut) != 1 || sig0cut[0] != 2 {
		t.Fatalf("sig(0) with m=2 = %v", sig0cut)
	}
	all := AllDegreeSignatures(g, 3)
	if len(all) != 4 {
		t.Fatal("wrong signature count")
	}
}

func TestNeighborhoodRecon(t *testing.T) {
	src := prng.New(911)
	d := 1
	for attempt := 0; ; attempt++ {
		if attempt >= 40 {
			t.Fatal("no disjoint-neighborhood base graph sampled in 40 tries")
		}
		n := 128
		p := 0.5
		g := graph.Gnp(n, p, src)
		m := int(p * float64(n) * 1.5)
		if !AreNeighborhoodsDisjoint(g, m, 8*d+1) {
			continue
		}
		ga, _ := graph.Perturb(g, 1, src)
		gb := g.Clone()
		sess := transport.New()
		rec, stats, err := NeighborhoodRecon(sess, hashing.NewCoins(uint64(attempt)+3), ga, gb, NeighborhoodParams{M: m, D: d})
		if err != nil {
			t.Fatalf("recon: %v", err)
		}
		if !graph.IsIsomorphic(rec, ga) {
			t.Fatal("recovered graph not isomorphic to Alice's")
		}
		if stats.Rounds != 1 {
			t.Fatalf("rounds = %d", stats.Rounds)
		}
		return
	}
}

func TestAreNeighborhoodsDisjointNegative(t *testing.T) {
	// Two isolated vertices have identical (empty) neighborhoods.
	g := graph.New(4)
	g.AddEdge(0, 1)
	if AreNeighborhoodsDisjoint(g, 4, 1) {
		t.Fatal("claimed disjoint despite identical empty signatures")
	}
}

func TestIsomorphismTestPositive(t *testing.T) {
	src := prng.New(21)
	g := graph.Gnp(7, 0.5, src)
	h := g.Relabel(src.Perm(7))
	sess := transport.New()
	iso, stats, err := IsomorphismTest(sess, hashing.NewCoins(5), g, h)
	if err != nil {
		t.Fatal(err)
	}
	if !iso {
		t.Fatal("isomorphic pair rejected")
	}
	if stats.Rounds != 1 || stats.TotalBytes != 24 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestIsomorphismTestNegative(t *testing.T) {
	src := prng.New(22)
	g := graph.Gnp(7, 0.5, src)
	h, _ := graph.Perturb(g, 1, src)
	sess := transport.New()
	iso, _, err := IsomorphismTest(sess, hashing.NewCoins(6), g, h)
	if err != nil {
		t.Fatal(err)
	}
	if iso {
		t.Fatal("non-isomorphic pair accepted")
	}
}

func TestIsomorphismTestTooLarge(t *testing.T) {
	g := graph.New(20)
	if _, _, err := IsomorphismTest(transport.New(), hashing.NewCoins(1), g, g); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestPolyRecon(t *testing.T) {
	src := prng.New(23)
	for _, d := range []int{1, 2} {
		g := graph.Gnp(6, 0.5, src)
		gb, _ := graph.Perturb(g, d, src)
		ga := g.Relabel(src.Perm(6)) // Alice holds an unlabeled copy
		sess := transport.New()
		rec, stats, err := PolyRecon(sess, hashing.NewCoins(uint64(d)), ga, gb, PolyReconParams{D: d})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !graph.TinyIsomorphic(rec, ga) {
			t.Fatalf("d=%d: recovered graph not isomorphic", d)
		}
		// O(d log n) bits: constant-size message here.
		if stats.TotalBytes != 24 {
			t.Fatalf("bytes = %d", stats.TotalBytes)
		}
	}
}

func TestPolyReconNoCandidate(t *testing.T) {
	src := prng.New(24)
	g := graph.Gnp(6, 0.5, src)
	gb, _ := graph.Perturb(g, 4, src) // more perturbation than D allows
	sess := transport.New()
	_, _, err := PolyRecon(sess, hashing.NewCoins(2), g, gb, PolyReconParams{D: 1})
	if err == nil {
		t.Fatal("expected no-candidate failure")
	}
}

func TestNextPrime(t *testing.T) {
	cases := map[uint64]uint64{2: 2, 3: 3, 4: 5, 90: 97, 1 << 20: 1048583}
	for in, want := range cases {
		if got := NextPrime(in); got != want {
			t.Fatalf("NextPrime(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestEdgeKeyRoundTrip(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {5, 3}, {1000, 999999}} {
		u, v := edgeFromKey(edgeKey(c[0], c[1]))
		a, b := c[0], c[1]
		if a > b {
			a, b = b, a
		}
		if u != a || v != b {
			t.Fatalf("edge key round trip (%d,%d) -> (%d,%d)", c[0], c[1], u, v)
		}
	}
}
