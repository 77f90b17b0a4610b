package setrecon

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/raceflag"
	"sosr/internal/setutil"
	"sosr/internal/worktest"
)

// planted returns canonical sets of n elements each, d apart.
func planted(seed uint64, n, d int) (alice, bob []uint64) {
	src := prng.New(seed)
	for len(alice) < n+d/2 {
		alice = append(alice, src.Uint64n(1<<59))
	}
	alice = setutil.Canonical(alice)
	bob = setutil.Clone(alice[d/2:])
	for i := 0; i < d/2; i++ {
		bob = append(bob, 1<<59+uint64(i)+seed<<20)
	}
	return alice, setutil.Canonical(bob)
}

// workCase is one set pair with both of Alice's payloads.
type workCase struct {
	coins       hashing.Coins
	alice, bob  []uint64
	d           int
	iblt, cpoly []byte
}

func newWorkCase(seed uint64, n, d int) *workCase {
	c := &workCase{coins: hashing.NewCoins(seed), d: d}
	c.alice, c.bob = planted(seed, n, d)
	c.iblt = BuildIBLTMsg(c.coins, c.alice, 2*d)
	c.cpoly = EncodeCharPoly(c.alice, d+1)
	return c
}

func (c *workCase) check(t testing.TB, what string, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: %v", what, err)
	} else if !slices.Equal(res.Recovered, c.alice) {
		t.Errorf("%s: recovered another set than Alice's", what)
	}
}

// TestWorkResultsDoNotAlias: a Result of either apply survives appends to
// each of its slices (they are cut from one array), the caller overwriting
// the set it passed, and later applies, encodes and estimator exchanges with
// other inputs on the pooled Works.
func TestWorkResultsDoNotAlias(t *testing.T) {
	c, other := newWorkCase(1, 2000, 16), newWorkCase(2, 500, 8)
	mine := setutil.Clone(c.bob)
	viaIBLT, err := ApplyIBLTMsg(c.coins, c.iblt, mine)
	c.check(t, "iblt", viaIBLT, err)
	viaPoly, err := ApplyCharPolyMsg(c.coins, c.cpoly, mine, c.d)
	c.check(t, "charpoly", viaPoly, err)
	snapshot := []Result{*viaIBLT, *viaPoly}
	for i := range snapshot {
		snapshot[i].Recovered, snapshot[i].OnlyA, snapshot[i].OnlyB = setutil.Clone(snapshot[i].Recovered), setutil.Clone(snapshot[i].OnlyA), setutil.Clone(snapshot[i].OnlyB)
	}
	for _, res := range []*Result{viaIBLT, viaPoly} {
		if len(res.OnlyA) == 0 || len(res.OnlyB) == 0 {
			t.Fatal("no difference to check")
		}
		for _, s := range [][]uint64{res.Recovered, res.OnlyA, res.OnlyB} {
			_ = append(s, 1<<61)
		}
	}
	for i := range mine {
		mine[i] = 1<<61 + uint64(i)
	}
	for i := 0; i < 3; i++ {
		res, err := ApplyIBLTMsg(other.coins, other.iblt, other.bob)
		other.check(t, "other iblt", res, err)
		res, err = ApplyCharPolyMsg(other.coins, other.cpoly, other.bob, other.d)
		other.check(t, "other charpoly", res, err)
		BuildIBLTMsg(other.coins, other.alice, 40)
		if _, err := DiffBoundFromEstimator(other.coins, BuildDiffEstimator(other.coins, other.bob), other.alice); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(snapshot, []Result{*viaIBLT, *viaPoly}) {
		t.Fatal("a later call on the pooled Work changed an earlier Result")
	}
}

// TestWorkPinsNoCallerData: a Work that has served a decode of either kind,
// an encode or an estimate points into none of the message, Bob's set or
// Alice's set — there is no release step, because nothing is ever kept.
func TestWorkPinsNoCallerData(t *testing.T) {
	c := newWorkCase(3, 2000, 16)
	caller := []worktest.Span{worktest.SpanOf(c.alice), worktest.SpanOf(c.bob), worktest.SpanOf(c.iblt), worktest.SpanOf(c.cpoly)}
	w := new(Work)
	if _, _, err := w.DecodeIBLT(c.iblt[:len(c.iblt)-8], c.bob); err != nil {
		t.Fatal(err)
	}
	worktest.PinsNothing(t, "Work after DecodeIBLT", w, caller...)
	if _, _, err := w.DecodeCharPoly(c.cpoly, c.bob, c.d, 9); err != nil {
		t.Fatal(err)
	}
	worktest.PinsNothing(t, "Work after DecodeCharPoly", w, caller...)
}

// TestConcurrentApplies: eight goroutines apply both payloads of two pairs at
// once, each call on its own pooled Work. Run under -race.
func TestConcurrentApplies(t *testing.T) {
	cases := []*workCase{newWorkCase(4, 1000, 16), newWorkCase(5, 300, 6)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := cases[g%2]
			for i := 0; i < 10; i++ {
				res, err := ApplyIBLTMsg(c.coins, c.iblt, c.bob)
				c.check(t, "concurrent iblt", res, err)
				res, err = ApplyCharPolyMsg(c.coins, c.cpoly, c.bob, c.d)
				c.check(t, "concurrent charpoly", res, err)
			}
		}(g)
	}
	wg.Wait()
}

// TestApplyAllocBudgets: at the benchmark's shapes (n = 20 000, d = 32 over
// the IBLT; n = 2 000, d = 16 over the characteristic polynomial) an apply
// allocates its Result — the struct, and the recovered set and the two sorted
// differences cut from one array — and nothing per cell, per point or per
// root: the IBLT apply was 22 objects and the char-poly apply 57 before the
// pooled Work, and both were 4 with an array per list. The encodes and the
// estimator exchange allocate the bytes they return.
func TestApplyAllocBudgets(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds Works under the race detector")
	}
	big, small := newWorkCase(8, 20000, 32), newWorkCase(7, 2000, 16)
	probe := BuildDiffEstimator(big.coins, big.bob)
	for _, tc := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"ApplyIBLTMsg", 3, func() error { _, err := ApplyIBLTMsg(big.coins, big.iblt, big.bob); return err }},
		{"ApplyCharPolyMsg", 3, func() error { _, err := ApplyCharPolyMsg(small.coins, small.cpoly, small.bob, small.d); return err }},
		{"BuildIBLTMsg", 2, func() error { BuildIBLTMsg(big.coins, big.alice, 32); return nil }},
		{"BuildDiffEstimator", 2, func() error { BuildDiffEstimator(big.coins, big.bob); return nil }},
		{"DiffBoundFromEstimator", 1, func() error { _, err := DiffBoundFromEstimator(big.coins, probe, big.alice); return err }},
	} {
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(10, func() { _ = tc.run() })
		t.Logf("%s allocs/op: %.0f (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s allocates %.0f objects, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
