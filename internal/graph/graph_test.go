package graph

import (
	"testing"

	"sosr/internal/prng"
)

func TestAddRemoveHasEdge(t *testing.T) {
	g := New(10)
	g.AddEdge(1, 2)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("edge not symmetric")
	}
	g.RemoveEdge(2, 1)
	if g.HasEdge(1, 2) {
		t.Fatal("edge not removed")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	New(3).AddEdge(1, 1)
}

func TestDegreesAndEdgeCount(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	if g.Degree(0) != 2 || g.Degree(1) != 1 || g.Degree(4) != 1 {
		t.Fatal("degrees wrong")
	}
	if g.EdgeCount() != 3 {
		t.Fatalf("edge count %d", g.EdgeCount())
	}
	if len(g.Edges()) != 3 {
		t.Fatal("edges list wrong")
	}
}

func TestNeighbors(t *testing.T) {
	g := New(100)
	g.AddEdge(5, 80)
	g.AddEdge(5, 7)
	var got []int
	g.EachNeighbor(5, func(v int) { got = append(got, v) })
	if len(got) != 2 || got[0] != 7 || got[1] != 80 {
		t.Fatalf("neighbors = %v", got)
	}
}

func TestGnpDensity(t *testing.T) {
	src := prng.New(1)
	g := Gnp(200, 0.25, src)
	m := g.EdgeCount()
	expect := 0.25 * 200 * 199 / 2
	if float64(m) < expect*0.8 || float64(m) > expect*1.2 {
		t.Fatalf("edge count %d far from expectation %.0f", m, expect)
	}
	empty := Gnp(50, 0, src)
	if empty.EdgeCount() != 0 {
		t.Fatal("p=0 graph has edges")
	}
	full := Gnp(10, 1, src)
	if full.EdgeCount() != 45 {
		t.Fatal("p=1 graph not complete")
	}
}

func TestPerturb(t *testing.T) {
	src := prng.New(2)
	g := Gnp(60, 0.3, src)
	h, flips := Perturb(g, 7, src)
	if len(flips) != 7 {
		t.Fatalf("flips = %d", len(flips))
	}
	changed := 0
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if g.HasEdge(u, v) != h.HasEdge(u, v) {
				changed++
			}
		}
	}
	if changed != 7 {
		t.Fatalf("%d vertex pairs changed, want 7", changed)
	}
	if g.Equal(h) {
		t.Fatal("perturbed graph equals original")
	}
}

func TestRelabelPreservesIsomorphism(t *testing.T) {
	src := prng.New(3)
	g := Gnp(40, 0.3, src)
	perm := src.Perm(40)
	h := g.Relabel(perm)
	if g.EdgeCount() != h.EdgeCount() {
		t.Fatal("relabel changed edge count")
	}
	if !IsIsomorphic(g, h) {
		t.Fatal("relabel broke isomorphism")
	}
}

func TestIsIsomorphicNegative(t *testing.T) {
	src := prng.New(4)
	g := Gnp(30, 0.3, src)
	h, _ := Perturb(g, 1, src)
	if IsIsomorphic(g, h) {
		// A single edge flip changes the edge count, so they can never be
		// isomorphic.
		t.Fatal("edge-count-differing graphs declared isomorphic")
	}
}

func TestIsIsomorphicRegularPair(t *testing.T) {
	// C6 vs 2×C3: both 2-regular on 6 vertices, not isomorphic.
	c6 := New(6)
	for i := 0; i < 6; i++ {
		c6.AddEdge(i, (i+1)%6)
	}
	twoC3 := New(6)
	twoC3.AddEdge(0, 1)
	twoC3.AddEdge(1, 2)
	twoC3.AddEdge(2, 0)
	twoC3.AddEdge(3, 4)
	twoC3.AddEdge(4, 5)
	twoC3.AddEdge(5, 3)
	if IsIsomorphic(c6, twoC3) {
		t.Fatal("C6 ≅ 2C3 claimed")
	}
	if !IsIsomorphic(c6, c6.Relabel([]int{3, 1, 4, 0, 5, 2})) {
		t.Fatal("C6 not isomorphic to its relabeling")
	}
}

func TestCodeRoundTrip(t *testing.T) {
	src := prng.New(5)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.Intn(7)
		g := Gnp(n, 0.5, src)
		if !g.Equal(FromCode(n, Code(g))) {
			t.Fatal("code round trip failed")
		}
	}
}

func TestCanonicalCodeInvariant(t *testing.T) {
	src := prng.New(6)
	for trial := 0; trial < 30; trial++ {
		n := 3 + src.Intn(4)
		g := Gnp(n, 0.5, src)
		perm := src.Perm(n)
		if CanonicalCode(g) != CanonicalCode(g.Relabel(perm)) {
			t.Fatal("canonical code not permutation invariant")
		}
	}
}

func TestCanonicalCodeIsMinimal(t *testing.T) {
	// The canonical code must be ≤ the graph's own code.
	src := prng.New(7)
	for trial := 0; trial < 30; trial++ {
		g := Gnp(5, 0.5, src)
		if CanonicalCode(g) > Code(g) {
			t.Fatal("canonical code exceeds own code")
		}
	}
}

func TestTinyIsomorphic(t *testing.T) {
	p4 := New(4) // path
	p4.AddEdge(0, 1)
	p4.AddEdge(1, 2)
	p4.AddEdge(2, 3)
	star := New(4)
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	star.AddEdge(0, 3)
	if TinyIsomorphic(p4, star) {
		t.Fatal("P4 ≅ K1,3 claimed")
	}
	if !TinyIsomorphic(p4, p4.Relabel([]int{3, 2, 1, 0})) {
		t.Fatal("P4 not isomorphic to its reverse")
	}
}

func TestFindFigure1Witness(t *testing.T) {
	w := FindFigure1Witness(5)
	if w == nil {
		t.Fatal("no Figure 1 witness on 5 vertices")
	}
	// Verify all claimed properties exactly.
	if TinyIsomorphic(w.G1, w.G2) {
		t.Fatal("witness graphs are isomorphic")
	}
	g1x := w.G1.Clone()
	g1x.AddEdge(w.E1[0], w.E1[1])
	g2x := w.G2.Clone()
	g2x.AddEdge(w.F1[0], w.F1[1])
	if !TinyIsomorphic(g1x, g2x) {
		t.Fatal("first merge pair not isomorphic")
	}
	g1y := w.G1.Clone()
	g1y.AddEdge(w.E2[0], w.E2[1])
	g2y := w.G2.Clone()
	g2y.AddEdge(w.F2[0], w.F2[1])
	if !TinyIsomorphic(g1y, g2y) {
		t.Fatal("second merge pair not isomorphic")
	}
	if TinyIsomorphic(g1x, g1y) {
		t.Fatal("the two merge results are isomorphic; witness is vacuous")
	}
	if !TinyIsomorphic(g1x, w.MergeX) || !TinyIsomorphic(g1y, w.MergeY) {
		t.Fatal("reported merge graphs wrong")
	}
}

func TestToggleEdge(t *testing.T) {
	g := New(3)
	if !g.ToggleEdge(0, 1) {
		t.Fatal("toggle should add")
	}
	if g.ToggleEdge(0, 1) {
		t.Fatal("toggle should remove")
	}
}

func TestPerturbRejectsImpossibleK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when k exceeds vertex pairs")
		}
	}()
	Perturb(New(2), 2, prng.New(1))
}
