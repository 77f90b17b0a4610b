package graphrecon

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"sosr/internal/core"
	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/setrecon"
	"sosr/internal/worktest"
)

// TestLabeledEdgeSetMatchesSortAndCompact holds the bit-row emission to the
// definition it replaced — every edge's key, sorted, duplicates dropped — on
// random graphs under a permutation, under labellings that send several
// vertices to one label (so two edges share a key, and an edge between two
// such vertices becomes the self-pair key a<<30|a), and under labels beyond
// the vertex count, as a hostile signature list can produce.
func TestLabeledEdgeSetMatchesSortAndCompact(t *testing.T) {
	src := prng.New(0xed9e5)
	var w graphWork
	for trial := 0; trial < 300; trial++ {
		n := 2 + src.Intn(90)
		g := graph.Gnp(n, []float64{0.05, 0.3, 0.8}[trial%3], src)
		label := src.Perm(n)
		switch trial % 4 {
		case 1: // non-injective: labels drawn from half the range
			for v := range label {
				label[v] = src.Intn(n/2 + 1)
			}
		case 2: // heavily colliding: three labels, most edges become self-pairs or repeats
			for v := range label {
				label[v] = src.Intn(3)
			}
		case 3: // sparse labels past n
			for v := range label {
				label[v] = src.Intn(3 * n)
			}
		}
		want := make([]uint64, 0, g.EdgeCount())
		for _, e := range g.Edges() {
			want = append(want, edgeKey(label[e[0]], label[e[1]]))
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if got := w.labeledEdgeSet(g, label); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, %d edges): %d keys, sort-and-compact gives %d", trial, n, g.EdgeCount(), len(got), len(want))
		}
	}
}

// degreeCase is one §5.1 exchange; nbrCase one §5.2 exchange.
type degreeCase struct {
	coins  hashing.Coins
	ga, gb *graph.Graph
	p      DegreeOrderParams
	msgs   *GraphMsgs
}

func newDegreeCase(t testing.TB, seed uint64) *degreeCase {
	t.Helper()
	src := prng.New(seed)
	base, h, err := PlantedSeparated(480, 2, 0.4, src)
	if err != nil {
		t.Fatal(err)
	}
	c := &degreeCase{coins: hashing.NewCoins(seed), p: DegreeOrderParams{H: h, D: 2}}
	c.ga, _ = graph.Perturb(base, 1, src)
	c.gb, _ = graph.Perturb(base, 1, src)
	// A cascade attempt fails with constant probability: draw coins that decode.
	for try := uint64(0); try < 16; try++ {
		c.coins = hashing.NewCoins(seed + try<<32)
		if c.msgs, err = DegreeOrderAlice(c.coins, c.ga, c.p); err != nil {
			t.Fatal(err)
		}
		if _, err = DegreeOrderApply(c.coins, c.gb, c.p, c.msgs.Sig, c.msgs.Edges); err == nil {
			return c
		}
	}
	t.Fatalf("no coins decode: %v", err)
	return nil
}

type nbrCase struct {
	coins  hashing.Coins
	ga, gb *graph.Graph
	p      NeighborhoodParams
	sideB  *NbrSide
	maxSig int
	msgs   *GraphMsgs
}

func newNbrCase(t testing.TB, seed uint64) *nbrCase {
	t.Helper()
	src := prng.New(seed)
	c := &nbrCase{p: NeighborhoodParams{M: 48, D: 1}}
	for {
		if c.gb = graph.Gnp(64, 0.5, src); MinNeighborhoodDisjointness(c.gb, c.p.M) >= 9 {
			break
		}
	}
	c.ga, _ = graph.Perturb(c.gb, 1, src)
	sideA, err := NeighborhoodEncode(c.ga, c.p.M)
	if err != nil {
		t.Fatal(err)
	}
	if c.sideB, err = NeighborhoodEncode(c.gb, c.p.M); err != nil {
		t.Fatal(err)
	}
	c.maxSig = max(sideA.MaxSig, c.sideB.MaxSig)
	for try := uint64(0); try < 16; try++ {
		c.coins = hashing.NewCoins(seed + try<<32)
		if c.msgs, err = NeighborhoodAlice(c.coins, c.ga, c.p, sideA, c.maxSig); err != nil {
			t.Fatal(err)
		}
		if _, err = c.apply(); err == nil {
			return c
		}
	}
	t.Fatalf("no coins decode: %v", err)
	return nil
}

func (c *nbrCase) apply() (*graph.Graph, error) {
	return NeighborhoodApply(c.coins, c.gb, c.p, c.sideB, c.maxSig, c.msgs.Sig, c.msgs.Edges)
}

// TestGraphWorkspace: payloads and recovered graphs of both schemes survive
// later exchanges on the pooled workspaces; a workspace released after any
// of the four entry points points into no message and into neither party's
// signatures; and both schemes run race-clean from eight goroutines.
func TestGraphWorkspace(t *testing.T) {
	deg, nbr := newDegreeCase(t, 31), newNbrCase(t, 32)
	recDeg, err := DegreeOrderApply(deg.coins, deg.gb, deg.p, deg.msgs.Sig, deg.msgs.Edges)
	if err != nil {
		t.Fatal(err)
	}
	recNbr, err := nbr.apply()
	if err != nil {
		t.Fatal(err)
	}
	sig, edges := bytes.Clone(deg.msgs.Sig), bytes.Clone(deg.msgs.Edges)
	wantDeg, wantNbr := recDeg.Clone(), recNbr.Clone()
	other := newDegreeCase(t, 77) // a full exchange of another graph pair
	for i := 0; i < 2; i++ {
		if _, err := DegreeOrderApply(other.coins, other.gb, other.p, other.msgs.Sig, other.msgs.Edges); err != nil {
			t.Fatal(err)
		}
		if _, err := nbr.apply(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(sig, deg.msgs.Sig) || !bytes.Equal(edges, deg.msgs.Edges) {
		t.Fatal("a later exchange changed an earlier payload")
	}
	if !recDeg.Equal(wantDeg) || !recNbr.Equal(wantNbr) {
		t.Fatal("a later exchange changed an earlier recovered graph")
	}
	if !graph.IsIsomorphic(recDeg, deg.ga) || !graph.IsIsomorphic(recNbr, nbr.ga) {
		t.Fatal("an exchange did not recover Alice's graph")
	}

	caller := append(worktest.SpansOf(nbr.sideB.Packed), worktest.SpansOf(nbr.sideB.Sigs)...)
	for _, b := range [][]byte{deg.msgs.Sig, deg.msgs.Edges, nbr.msgs.Sig, nbr.msgs.Edges} {
		caller = append(caller, worktest.SpanOf(b))
	}
	w := new(graphWork)
	steps := []struct {
		name string
		run  func() error
	}{
		{"degreeOrderAlice", func() error { _, err := w.degreeOrderAlice(deg.coins, deg.ga, deg.p); return err }},
		{"degreeOrderApply", func() error {
			_, err := w.degreeOrderApply(deg.coins, deg.gb, deg.p, deg.msgs.Sig, deg.msgs.Edges)
			return err
		}},
		{"neighborhoodAlice", func() error {
			_, err := w.neighborhoodAlice(nbr.coins, nbr.gb, nbr.p, nbr.sideB, nbr.maxSig)
			return err
		}},
		{"neighborhoodApply", func() error {
			_, err := w.neighborhoodApply(nbr.coins, nbr.gb, nbr.p, nbr.sideB, nbr.maxSig, nbr.msgs.Sig, nbr.msgs.Edges)
			return err
		}},
	}
	for _, step := range steps {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		w.release()
		worktest.PinsNothing(t, "graphWork after "+step.name, w, caller...)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if g%2 == 0 {
					msgs, err := DegreeOrderAlice(deg.coins, deg.ga, deg.p)
					if err != nil || !bytes.Equal(msgs.Sig, deg.msgs.Sig) || !bytes.Equal(msgs.Edges, deg.msgs.Edges) {
						t.Errorf("concurrent degree-order encode differs (err %v)", err)
						return
					}
					rec, err := DegreeOrderApply(deg.coins, deg.gb, deg.p, msgs.Sig, msgs.Edges)
					if err != nil || !rec.Equal(wantDeg) {
						t.Errorf("concurrent degree-order apply differs (err %v)", err)
						return
					}
				} else if rec, err := nbr.apply(); err != nil || !rec.Equal(wantNbr) {
					t.Errorf("concurrent neighbourhood apply differs (err %v)", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNeighborhoodApplyRefusesCraftedSignature: Alice's recovered signatures
// are hers to choose. A packed word whose 16-bit count field claims more than
// the §3.4 packing allows (here 65 535 copies of one degree) fails the apply
// as ErrMultisetRange instead of being expanded, and so does a signature that
// is well-formed word by word but larger than any vertex's neighbourhood.
func TestNeighborhoodApplyRefusesCraftedSignature(t *testing.T) {
	c := newNbrCase(t, 33)
	sigShape, budget := NeighborhoodSigShape(c.ga.N, c.p, c.maxSig)
	sigParams, err := sigShape.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	parent, err := new(graphWork).signatureParent(c.sideB.Packed)
	if err != nil {
		t.Fatal(err)
	}
	craft := func(word uint64) []byte {
		hostile := slices.Clone(parent)
		hostile[0] = append(slices.Clone(hostile[0]), word) // stays canonical: the word exceeds every honest one
		slices.Sort(hostile[0])
		msg, err := core.AliceMsg(core.DigestCascade, c.coins.Sub("graphrecon/nbr-sig", 0), hostile, sigParams, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	_, err = NeighborhoodApply(c.coins, c.gb, c.p, c.sideB, c.maxSig, craft(0xffff<<48|7), c.msgs.Edges)
	if !errors.Is(err, setrecon.ErrMultisetRange) {
		t.Fatalf("65 535-fold word: err = %v, want ErrMultisetRange", err)
	}
	_, err = NeighborhoodApply(c.coins, c.gb, c.p, c.sideB, c.maxSig, craft(setrecon.PackCounted(7, setrecon.MaxMultiplicity-1)), c.msgs.Edges)
	if err == nil || errors.Is(err, ErrNoConformingMatch) {
		t.Fatalf("4 094-fold word on a 64-vertex graph: err = %v, want the signature refused by its size", err)
	}
}
