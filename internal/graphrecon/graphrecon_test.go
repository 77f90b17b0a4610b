package graphrecon

import (
	"encoding/binary"
	"errors"
	"math/big"
	"testing"

	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/setrecon"
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
	top, rest, sigs := new(graphWork).degreeOrderSignatures(g, 2)
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
	all := AllDegreeSignatures(g, 3)
	if len(all) != 4 {
		t.Fatal("wrong signature count")
	}
	if sig0 := all[0]; len(sig0) != 2 || sig0[0] != 2 || sig0[1] != 3 {
		t.Fatalf("sig(0) = %v", sig0)
	}
	if sig2 := all[2]; len(sig2) != 3 || sig2[0] != 1 || sig2[1] != 2 || sig2[2] != 2 {
		t.Fatalf("sig(2) = %v", sig2)
	}
	// Threshold cuts high degrees.
	if sig0cut := AllDegreeSignatures(g, 2)[0]; len(sig0cut) != 1 || sig0cut[0] != 2 {
		t.Fatalf("sig(0) with m=2 = %v", sig0cut)
	}
}

// areNeighborhoodsDisjoint checks Definition 5.4 for all vertex pairs: every
// two distinct vertices' degree neighborhoods (threshold m) differ in at
// least k multiset elements. The Theorem 5.6 tests sample base graphs with
// it.
func areNeighborhoodsDisjoint(g *graph.Graph, m, k int) bool {
	sigs := AllDegreeSignatures(g, m)
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if setrecon.MultisetSymDiff(sigs[i], sigs[j]) < k {
				return false
			}
		}
	}
	return true
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
		if !areNeighborhoodsDisjoint(g, m, 8*d+1) {
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
	if areNeighborhoodsDisjoint(g, 4, 1) {
		t.Fatal("claimed disjoint despite identical empty signatures")
	}
}

// isomorphic runs Theorem 4.1 as the d = 0 case of Theorem 4.3's steps.
func isomorphic(t *testing.T, coins hashing.Coins, ga, gb *graph.Graph) (bool, transport.Stats) {
	t.Helper()
	sess := transport.New()
	_, _, err := PolyRecon(sess, coins, ga, gb, 0)
	if err != nil && !errors.Is(err, ErrNoCandidate) {
		t.Fatal(err)
	}
	return err == nil, sess.Stats()
}

func TestIsomorphismTestPositive(t *testing.T) {
	src := prng.New(21)
	g := graph.Gnp(8, 0.5, src)
	h := g.Relabel(src.Perm(8))
	iso, stats := isomorphic(t, hashing.NewCoins(5), g, h)
	if !iso {
		t.Fatal("isomorphic pair rejected")
	}
	if stats.Rounds != 1 || stats.TotalBytes != PolyMsgSize {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestIsomorphismTestNegative(t *testing.T) {
	src := prng.New(22)
	g := graph.Gnp(7, 0.5, src)
	h, _ := graph.Perturb(g, 1, src)
	if iso, stats := isomorphic(t, hashing.NewCoins(6), g, h); iso || stats.TotalBytes != PolyMsgSize {
		t.Fatalf("non-isomorphic pair: iso=%v stats=%+v", iso, stats)
	}
}

// TestIsomorphismTestTooLarge: the tiny-graph limits are n ≤ 8 at d = 0 and
// n ≤ 6 above, on both sides of the message.
func TestIsomorphismTestTooLarge(t *testing.T) {
	coins := hashing.NewCoins(1)
	for _, c := range []struct{ n, d int }{{9, 0}, {20, 0}, {7, 1}} {
		g := graph.New(c.n)
		if _, err := PolyAlice(coins, g, c.d); !errors.Is(err, ErrTooLarge) {
			t.Errorf("n=%d d=%d: PolyAlice err = %v", c.n, c.d, err)
		}
		if _, err := PolyApply(g, c.d, make([]byte, PolyMsgSize)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("n=%d d=%d: PolyApply err = %v", c.n, c.d, err)
		}
	}
	if _, err := PolyAlice(coins, graph.New(8), 0); err != nil {
		t.Errorf("n=8 d=0: %v", err)
	}
}

func TestPolyRecon(t *testing.T) {
	src := prng.New(23)
	for _, d := range []int{1, 2} {
		g := graph.Gnp(6, 0.5, src)
		gb, _ := graph.Perturb(g, d, src)
		ga := g.Relabel(src.Perm(6)) // Alice holds an unlabeled copy
		sess := transport.New()
		rec, stats, err := PolyRecon(sess, hashing.NewCoins(uint64(d)), ga, gb, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !graph.TinyIsomorphic(rec, ga) {
			t.Fatalf("d=%d: recovered graph not isomorphic", d)
		}
		// O(d log n) bits: constant-size message here.
		if stats.TotalBytes != PolyMsgSize {
			t.Fatalf("bytes = %d", stats.TotalBytes)
		}
	}
}

func TestPolyReconNoCandidate(t *testing.T) {
	src := prng.New(24)
	g := graph.Gnp(6, 0.5, src)
	gb, _ := graph.Perturb(g, 4, src) // more perturbation than D allows
	sess := transport.New()
	_, _, err := PolyRecon(sess, hashing.NewCoins(2), g, gb, 1)
	if !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("err = %v, want ErrNoCandidate", err)
	}
}

// TestPolyShapeSaturates: n^(2d+3) outgrows 64 bits at n = 6 from d = 11 on
// (6^25 > 2^64). The modulus saturates at the largest 64-bit prime instead of
// wrapping, d is capped at the vertex pairs, and the protocol still runs there.
func TestPolyShapeSaturates(t *testing.T) {
	const maxPrime = 1<<64 - 59
	if !new(big.Int).SetUint64(maxPrime).ProbablyPrime(32) {
		t.Fatal("2^64 − 59 is not prime")
	}
	for _, c := range []struct{ n, d, flips int }{{6, 11, 11}, {6, 15, 15}, {6, 1000, 15}} {
		flips, q, err := PolyShape(c.n, c.d)
		if err != nil || flips != c.flips || q != maxPrime {
			t.Errorf("PolyShape(%d, %d) = %d, %d, %v; want %d, 2^64−59", c.n, c.d, flips, q, err, c.flips)
		}
	}
	pow := uint64(1)
	for range 23 {
		pow *= 6
	}
	if _, q, _ := PolyShape(6, 10); q < pow || q == maxPrime {
		t.Errorf("PolyShape(6, 10): q = %d, want the prime after 6^23 = %d", q, pow)
	}
	if flips, _, _ := PolyShape(5, 1<<30); flips != 10 {
		t.Errorf("PolyShape(5, 2^30): flips = %d, want the 10 vertex pairs", flips)
	}
	src := prng.New(25)
	g := graph.Gnp(6, 0.5, src)
	gb, _ := graph.Perturb(g, 2, src)
	rec, _, err := PolyRecon(transport.New(), hashing.NewCoins(11), g, gb, 11)
	if err != nil || !graph.TinyIsomorphic(rec, g) {
		t.Fatalf("n=6 d=11: err %v", err)
	}
}

// TestPolyApplyRefusesHostileMessages: the modulus is Bob's to derive; a
// message whose q is zero or another prime, whose r or value is not below q,
// or whose length is not 24 is refused as ErrBadPolyMsg before any division.
func TestPolyApplyRefusesHostileMessages(t *testing.T) {
	g := graph.Gnp(6, 0.5, prng.New(26))
	msg, err := PolyAlice(hashing.NewCoins(3), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, q, _ := PolyShape(6, 2)
	for name, c := range map[string]struct {
		at   int
		word uint64
	}{
		"q=0":       {0, 0},
		"q other":   {0, NextPrime(q + 1)},
		"r=q":       {8, q},
		"r max":     {8, ^uint64(0)},
		"value ≥ q": {16, q},
	} {
		bad := append([]byte(nil), msg...)
		binary.LittleEndian.PutUint64(bad[c.at:], c.word)
		if _, err := PolyApply(g, 2, bad); !errors.Is(err, ErrBadPolyMsg) {
			t.Errorf("%s: err = %v, want ErrBadPolyMsg", name, err)
		}
	}
	for _, bad := range [][]byte{nil, msg[:23], append(append([]byte(nil), msg...), 0)} {
		if _, err := PolyApply(g, 2, bad); !errors.Is(err, ErrBadPolyMsg) {
			t.Errorf("%d bytes: err = %v, want ErrBadPolyMsg", len(bad), err)
		}
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
