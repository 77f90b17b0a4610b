package forest

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"sosr/internal/core"
	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/worktest"
)

// canonLabelsByString is canonLabels as it was: a shape is interned as the
// string of its sorted child labels.
func canonLabelsByString(forests ...*Forest) [][]int {
	intern := map[string]int{}
	out := make([][]int, len(forests))
	for fi, f := range forests {
		labels := make([]int, f.N())
		var w forestWork
		children := w.childLists(f)
		for _, v := range w.bottomUp(f, children) {
			var ids []int
			for _, c := range children[v] {
				ids = append(ids, labels[c])
			}
			slices.Sort(ids)
			var key []byte
			for _, id := range ids {
				key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
			id, ok := intern[string(key)]
			if !ok {
				id = len(intern) + 1
				intern[string(key)] = id
			}
			labels[v] = id
		}
		out[fi] = labels
	}
	return out
}

// TestCanonLabelsMatchStringInterning: interning shapes by hash-and-confirm
// in a flat arena numbers them exactly as interning them as strings did —
// first seen, first numbered — jointly across forests, and IsIsomorphic
// agrees with comparing the root label multisets.
func TestCanonLabelsMatchStringInterning(t *testing.T) {
	src := prng.New(0xca11)
	for trial := 0; trial < 60; trial++ {
		a := Random(1+src.Intn(300), 0.1+0.3*src.Float64(), src)
		b := Perturb(a, src.Intn(3), src)
		if trial%2 == 0 {
			b = shuffle(a, src) // isomorphic by construction
		}
		got, want := canonLabels(a, b), canonLabelsByString(a, b)
		if !slices.Equal(got[0], want[0]) || !slices.Equal(got[1], want[1]) {
			t.Fatalf("trial %d: labels differ from string interning", trial)
		}
		rootsOf := func(f *Forest, labels []int) []int {
			var out []int
			for _, r := range f.Roots() {
				out = append(out, labels[r])
			}
			slices.Sort(out)
			return out
		}
		iso := slices.Equal(rootsOf(a, want[0]), rootsOf(b, want[1]))
		if IsIsomorphic(a, b) != iso || (trial%2 == 0 && !iso) {
			t.Fatalf("trial %d: IsIsomorphic = %v, root labels say %v", trial, !iso, iso)
		}
	}
}

// shuffle returns f with its vertices renamed by a random permutation.
func shuffle(f *Forest, src *prng.Source) *Forest {
	perm := src.Perm(f.N())
	out := New(f.N())
	for v, p := range f.Parent {
		if p >= 0 {
			out.Parent[perm[v]] = int32(perm[p])
		}
	}
	return out
}

type forestCase struct {
	coins     hashing.Coins
	fa, fb    *Forest
	p         ReconParams
	params    core.Params
	sig, meta []byte
}

func newForestCase(t testing.TB, seed uint64, n int) *forestCase {
	t.Helper()
	c := &forestCase{fa: Random(n, 0.2, prng.New(seed))}
	c.fb = Perturb(c.fa, 3, prng.New(seed+1))
	c.p, c.params = Plan(Measure(c.fa), Measure(c.fb), ReconParams{D: 3, Sigma: 16})
	var err error
	for try := uint64(0); try < 16; try++ { // a cascade attempt may fail: draw coins that decode
		c.coins = hashing.NewCoins(seed + try<<32)
		if c.sig, c.meta, err = AliceMsg(c.coins, c.fa, c.p, c.params); err != nil {
			t.Fatal(err)
		}
		if _, err = c.apply(); err == nil {
			return c
		}
	}
	t.Fatalf("no coins decode: %v", err)
	return nil
}

func (c *forestCase) apply() (*Forest, error) {
	return Apply(c.coins, c.fb, c.p, c.params, c.sig, c.meta)
}

// TestForestWorkspace: a payload and a rebuilt forest survive later exchanges
// and isomorphism tests on the pooled workspaces; a workspace released after
// any entry point points into no message and no forest; eight goroutines run
// the exchange race-clean.
func TestForestWorkspace(t *testing.T) {
	c, other := newForestCase(t, 41, 600), newForestCase(t, 91, 250)
	rec, err := c.apply()
	if err != nil {
		t.Fatal(err)
	}
	sig, want := bytes.Clone(c.sig), rec.Clone()
	for i := 0; i < 3; i++ {
		if _, _, err := AliceMsg(other.coins, other.fa, other.p, other.params); err != nil {
			t.Fatal(err)
		}
		if rec2, err := other.apply(); err != nil || !IsIsomorphic(rec2, other.fa) {
			t.Fatalf("other exchange: err %v", err)
		}
	}
	if !bytes.Equal(sig, c.sig) || !slices.Equal(rec.Parent, want.Parent) {
		t.Fatal("a later exchange changed an earlier payload or rebuilt forest")
	}
	if !IsIsomorphic(rec, c.fa) {
		t.Fatal("the exchange did not rebuild Alice's forest")
	}

	caller := []worktest.Span{worktest.SpanOf(c.sig), worktest.SpanOf(c.meta), worktest.SpanOf(c.fa.Parent), worktest.SpanOf(c.fb.Parent)}
	w := getForestWork()
	steps := []struct {
		name string
		run  func() error
	}{
		{"aliceMsg", func() error { _, _, err := w.aliceMsg(c.coins, c.fa, c.p, c.params); return err }},
		{"apply", func() error { _, err := w.apply(c.coins, c.fb, c.p, c.params, c.sig, c.meta); return err }},
		{"canonLabels", func() error { w.canonLabels(c.fa, make([]int, c.fa.N())); return nil }},
	}
	for _, step := range steps {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		w.release()
		worktest.PinsNothing(t, "forestWork after "+step.name, w, caller...)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := []*forestCase{c, other}[g%2]
			for i := 0; i < 3; i++ {
				sig, _, err := AliceMsg(c.coins, c.fa, c.p, c.params)
				if err != nil || !bytes.Equal(sig, c.sig) {
					t.Errorf("concurrent encode differs (err %v)", err)
					return
				}
				if rec, err := c.apply(); err != nil || !IsIsomorphic(rec, c.fa) {
					t.Errorf("concurrent apply wrong (err %v)", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
