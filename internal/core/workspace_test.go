package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/raceflag"
	"sosr/internal/setutil"
	"sosr/internal/workload"
	"sosr/internal/worktest"
)

// Tests for the pooled cascade workspace: what it saves, and that pooling
// leaks nothing — not into a Result (aliasing), not across goroutines
// (races), not into the pool (pinned caller data).

// cachedCascade is one hot decode's inputs: message, Bob's data and sketch.
type cachedCascade struct {
	coins      hashing.Coins
	p          Params
	d          int
	alice, bob [][]uint64
	msg        []byte
	sk         *BobSketch
}

func newCachedCascade(t testing.TB, seed uint64, d int) *cachedCascade {
	t.Helper()
	c := &cachedCascade{coins: hashing.NewCoins(seed), d: d}
	c.alice, c.bob = workload.PlantedSetsOfSets(seed, 200, 10, 1<<32, 16)
	var err error
	h := 1 // the shape a wire session derives: the largest child on either side
	for _, cs := range append(append([][]uint64(nil), c.alice...), c.bob...) {
		h = max(h, len(cs))
	}
	if c.p, err = (Params{S: 200, H: h, U: 1 << 32}).normalized(); err != nil {
		t.Fatal(err)
	}
	if c.msg, err = AliceMsg(DigestCascade, c.coins, c.alice, c.p, d, DHat(d, c.p.S)); err != nil {
		t.Fatal(err)
	}
	if c.sk, err = NewBobSketch(DigestCascade, c.coins, c.bob, c.p, d, DHat(d, c.p.S)); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *cachedCascade) apply() (*Result, error) {
	return ApplyMsgCached(DigestCascade, c.coins, c.msg, c.bob, c.p, c.d, DHat(c.d, c.p.S), c.sk)
}

// usable draws seeds until one decodes: a cascade attempt fails with constant
// probability by design, and these tests are about the workspace, not the
// retry loop.
func usableCascade(t testing.TB, from uint64, d int) *cachedCascade {
	t.Helper()
	for seed := from; seed < from+32; seed++ {
		c := newCachedCascade(t, seed, d)
		if _, err := c.apply(); err == nil {
			return c
		}
	}
	t.Fatal("no seed decodes")
	return nil
}

// TestCachedCascadeDecodeAllocBudget: at the benchmark's shape (s=200, h≈10,
// d=32) a cached decode allocated 97 objects before the workspace and 7 with
// it; what is left is the Result and the one arena and header slice its three
// lists are packed in.
func TestCachedCascadeDecodeAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds workspaces under the race detector")
	}
	c := usableCascade(t, 1, 32)
	got := testing.AllocsPerRun(50, func() {
		if _, err := c.apply(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cached cascade decode allocs/op: %.0f", got)
	if got > 4 {
		t.Fatalf("cached cascade decode allocates %.0f/op, budget 4", got)
	}
}

// TestWorkspaceResultsDoNotAlias: a Result must survive any number of later
// decodes on the same (pooled) workspace, with different inputs.
func TestWorkspaceResultsDoNotAlias(t *testing.T) {
	first, second := usableCascade(t, 1, 32), usableCascade(t, 100, 16)
	res, err := first.apply()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := &Result{
		Recovered: setutil.CloneSets(res.Recovered),
		Added:     setutil.CloneSets(res.Added),
		Removed:   setutil.CloneSets(res.Removed),
	}
	for i := 0; i < 4; i++ {
		if _, err := second.apply(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res.Recovered, snapshot.Recovered) ||
		!reflect.DeepEqual(res.Added, snapshot.Added) || !reflect.DeepEqual(res.Removed, snapshot.Removed) {
		t.Fatal("a later decode on the same workspace changed an earlier Result")
	}
	if !setutil.EqualSetOfSets(res.Recovered, first.alice) {
		t.Fatal("first decode did not recover Alice's parent set")
	}
}

// TestConcurrentCachedDecodesShareOneSketch: the sketch (and the plan inside
// it) is read-only and every call takes its own workspace. Run under -race.
func TestConcurrentCachedDecodesShareOneSketch(t *testing.T) {
	c := usableCascade(t, 1, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := c.apply()
				if err != nil {
					t.Error(err)
					return
				}
				if !setutil.EqualSetOfSets(res.Recovered, c.alice) {
					t.Error("concurrent decode recovered the wrong parent set")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReleasedWorkspacePinsNoCallerData walks a released workspace and
// requires that no slice or map in it still points into the message or into
// Bob's child sets (one arena, after CanonicalSets), so a pooled workspace
// keeps neither alive.
func TestReleasedWorkspacePinsNoCallerData(t *testing.T) {
	c := usableCascade(t, 1, 32)
	c.bob = setutil.CanonicalSets(c.bob) // one arena: one address range to look for
	for _, sk := range []*BobSketch{c.sk, nil} {
		w := newCascadeWork()
		if _, err := w.run(mustPlan(t, DigestCascade, c.coins, c.p, c.d, 0), c.msg, c.bob, sk); err != nil {
			t.Fatal(err)
		}
		w.release()
		caller := append(worktest.SpansOf(c.bob), worktest.SpanOf(c.msg))
		if sk != nil {
			caller = append(caller, worktest.SpanOf(sk.bobHashes))
		}
		worktest.PinsNothing(t, "cascadeWork", w, caller...)
		if w.bob != nil || w.bobHashes != nil {
			t.Error("released workspace keeps the run's inputs")
		}
	}
}

// oneRound is one cold one-round exchange's inputs, for every kind.
type oneRound struct {
	kind       DigestKind
	coins      hashing.Coins
	p          Params
	d, dHat    int
	alice, bob [][]uint64
	msg        []byte
}

// usableOneRound draws seeds until the exchange decodes.
func usableOneRound(t testing.TB, kind DigestKind, from uint64, s, d int) *oneRound {
	t.Helper()
	for seed := from; seed < from+32; seed++ {
		c := &oneRound{kind: kind, coins: hashing.NewCoins(seed), d: d}
		c.alice, c.bob = workload.PlantedSetsOfSets(seed, s, 10, 1<<32, d)
		c.alice, c.bob = setutil.CanonicalSets(c.alice), setutil.CanonicalSets(c.bob)
		var err error
		if c.p, err = (Params{S: s, H: 16, U: 1 << 32}).normalized(); err != nil {
			t.Fatal(err)
		}
		c.dHat = DHat(d, c.p.S)
		if c.msg, err = AliceMsg(kind, c.coins, c.alice, c.p, d, c.dHat); err != nil {
			t.Fatal(err)
		}
		if _, err := c.apply(); err == nil {
			return c
		}
	}
	t.Fatalf("kind %d: no seed decodes", kind)
	return nil
}

func (c *oneRound) apply() (*Result, error) {
	return ApplyMsg(c.kind, c.coins, c.msg, c.bob, c.p, c.d, c.dHat)
}

var oneRoundKinds = []DigestKind{DigestNaive, DigestNested, DigestCascade}

// TestOneRoundWorkspaceResultsDoNotAlias: for every kind, a payload and a
// Result survive later encodes and decodes of other inputs, of every kind, on
// the same pooled workspaces.
func TestOneRoundWorkspaceResultsDoNotAlias(t *testing.T) {
	var others []*oneRound
	for _, kind := range oneRoundKinds {
		others = append(others, usableOneRound(t, kind, 100, 120, 8))
	}
	for _, kind := range oneRoundKinds {
		c := usableOneRound(t, kind, 1, 200, 16)
		res, err := c.apply()
		if err != nil {
			t.Fatal(err)
		}
		msg := bytes.Clone(c.msg)
		snapshot := [3][][]uint64{setutil.CloneSets(res.Recovered), setutil.CloneSets(res.Added), setutil.CloneSets(res.Removed)}
		for i := 0; i < 3; i++ {
			for _, o := range others {
				if _, err := AliceMsg(o.kind, o.coins, o.alice, o.p, o.d, o.dHat); err != nil {
					t.Fatal(err)
				}
				if _, err := o.apply(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !bytes.Equal(msg, c.msg) {
			t.Fatalf("kind %d: a later encode changed an earlier payload", kind)
		}
		if !reflect.DeepEqual(snapshot, [3][][]uint64{res.Recovered, res.Added, res.Removed}) {
			t.Fatalf("kind %d: a later decode changed an earlier Result", kind)
		}
		if !setutil.EqualSetOfSets(res.Recovered, c.alice) {
			t.Fatalf("kind %d: decode did not recover Alice's parent set", kind)
		}
	}
}

// TestReleasedOneRoundWorkspacePinsNothing: after Alice's build and after
// Bob's apply, of every kind, a released workspace points neither into the
// parent set it read nor into the message.
func TestReleasedOneRoundWorkspacePinsNothing(t *testing.T) {
	for _, kind := range oneRoundKinds {
		c := usableOneRound(t, kind, 1, 200, 16)
		caller := append(append(worktest.SpansOf(c.alice), worktest.SpansOf(c.bob)...), worktest.SpanOf(c.msg))
		w := newCascadeWork()
		if err := w.plan.init(kind, c.coins, c.p, c.d, c.dHat); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.alice(&w.plan, c.alice), c.msg) {
			t.Fatalf("kind %d: alice on a fresh workspace differs from AliceMsg", kind)
		}
		w.release()
		worktest.PinsNothing(t, fmt.Sprintf("cascadeWork after Alice kind %d", kind), w, caller...)

		if err := w.plan.init(kind, c.coins, c.p, c.d, c.dHat); err != nil {
			t.Fatal(err)
		}
		_, err := w.run(&w.plan, c.msg, c.bob, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.release()
		worktest.PinsNothing(t, fmt.Sprintf("cascadeWork after Bob kind %d", kind), w, caller...)
	}
}

// TestResultOwnsItsMemory: Recovered, Added and Removed are cut from one
// arena and one header slice, and own them. For every one-round kind, plain
// and through a sketch, and for the multi-round finish: appending to any of
// the three slices, or to any child of one, writes into no other; and neither
// the caller overwriting the parent it passed nor the next decode on the same
// workspace changes the Result.
func TestResultOwnsItsMemory(t *testing.T) {
	for _, kind := range oneRoundKinds {
		c, other := usableOneRound(t, kind, 1, 200, 16), usableOneRound(t, kind, 100, 120, 8)
		w := newCascadeWork()
		decode := func(c *oneRound, bob [][]uint64, sk *BobSketch) (*Result, error) {
			defer w.release()
			if sk != nil {
				return w.run(&sk.plan, c.msg, bob, sk)
			}
			if err := w.plan.init(kind, c.coins, c.p, c.d, c.dHat); err != nil {
				return nil, err
			}
			return w.run(&w.plan, c.msg, bob, nil)
		}
		next := func() error { _, err := decode(other, other.bob, nil); return err }
		ownsItsMemory(t, fmt.Sprintf("kind %d", kind), c.bob, func(mine [][]uint64) (*Result, error) {
			return decode(c, mine, nil)
		}, next)
		ownsItsMemory(t, fmt.Sprintf("kind %d cached", kind), c.bob, func(mine [][]uint64) (*Result, error) {
			sk, err := NewBobSketch(kind, c.coins, mine, c.p, c.d, c.dHat)
			if err != nil {
				return nil, err
			}
			return decode(c, mine, sk)
		}, next)
	}
	c, err := newMultiRoundCase(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	other, err := newMultiRoundCase(77, 120)
	if err != nil {
		t.Fatal(err)
	}
	w := &mrWork{byHash: make(map[uint64][]uint64), removed: make(map[uint64]bool)}
	ownsItsMemory(t, "multi-round", c.bob, func(mine [][]uint64) (*Result, error) {
		_, st, err := MRBob2(c.coins, mine, c.p, c.msg1)
		if err != nil {
			return nil, err
		}
		defer w.release()
		return w.bobFinish(c.coins, mine, st, c.msg3)
	}, func() error {
		defer w.release()
		_, err := w.bobFinish(other.coins, other.bob, other.st, other.msg3)
		return err
	})
}

// ownsItsMemory decodes a private copy of bob, then appends to every slice of
// the Result and to every child in them, overwrites the copy, runs next, and
// requires the Result to read as it did when decode returned.
func ownsItsMemory(t *testing.T, name string, bob [][]uint64, decode func(mine [][]uint64) (*Result, error), next func() error) {
	t.Helper()
	mine := setutil.CanonicalSets(bob)
	res, err := decode(mine)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(res.Added) == 0 || len(res.Removed) == 0 {
		t.Fatalf("%s: no difference to check", name)
	}
	lists := func() [3][][]uint64 { return [3][][]uint64{res.Recovered, res.Added, res.Removed} }
	var want [3][][]uint64
	for i, l := range lists() {
		want[i] = setutil.CloneSets(l)
	}
	for _, l := range lists() {
		_ = append(l, []uint64{1 << 61})
		for _, cs := range l {
			_ = append(cs, 1<<61)
		}
	}
	for _, cs := range mine {
		for i := range cs {
			cs[i] = 1<<61 + uint64(i)
		}
	}
	if err := next(); err != nil {
		t.Fatalf("%s: next decode: %v", name, err)
	}
	if !reflect.DeepEqual(lists(), want) {
		t.Fatalf("%s: the Result changed under appends to it, the caller's parent or the next decode", name)
	}
}

// TestConcurrentOneRoundExchanges: eight goroutines encode and decode every
// kind at once, each call on its own pooled workspace. Run under -race.
func TestConcurrentOneRoundExchanges(t *testing.T) {
	var cases []*oneRound
	for _, kind := range oneRoundKinds {
		cases = append(cases, usableOneRound(t, kind, 1, 200, 16))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				c := cases[(g+i)%len(cases)]
				msg, err := AliceMsg(c.kind, c.coins, c.alice, c.p, c.d, c.dHat)
				if err != nil || !bytes.Equal(msg, c.msg) {
					t.Errorf("kind %d: concurrent encode differs (err %v)", c.kind, err)
					return
				}
				res, err := c.apply()
				if err != nil || !setutil.EqualSetOfSets(res.Recovered, c.alice) {
					t.Errorf("kind %d: concurrent decode wrong (err %v)", c.kind, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// multiRoundCase is one Theorem 3.10 exchange, round by round.
type multiRoundCase struct {
	coins            hashing.Coins
	p                Params
	alice, bob       [][]uint64
	probe            []byte
	dHat             int
	msg1, msg2, msg3 []byte
	st               *MRBobState
}

func newMultiRoundCase(seed uint64, s int) (*multiRoundCase, error) {
	c := &multiRoundCase{coins: hashing.NewCoins(seed)}
	c.alice, c.bob = workload.PlantedSetsOfSets(seed, s, 10, 1<<32, 16)
	c.alice, c.bob = setutil.CanonicalSets(c.alice), setutil.CanonicalSets(c.bob)
	var err error
	if c.p, err = (Params{S: s, H: 16, U: 1 << 32}).normalized(); err != nil {
		return nil, err
	}
	c.probe = BuildChildDiffProbe(c.coins, c.bob, c.p)
	c.dHat = EstimateChildDiff(c.probe, c.coins, c.alice, c.p)
	c.msg1 = MRAlice1(c.coins, c.alice, c.dHat)
	if c.msg2, c.st, err = MRBob2(c.coins, c.bob, c.p, c.msg1); err != nil {
		return nil, err
	}
	if c.msg3, _, err = MRAlice3(c.coins, c.alice, c.p, 0, c.msg2); err != nil {
		return nil, err
	}
	return c, nil
}

// TestMultiRoundWorkspace: every step's output survives the steps of another
// exchange; a workspace released after any step points into neither parent
// set nor any round's bytes; and the whole exchange runs race-clean from
// eight goroutines.
func TestMultiRoundWorkspace(t *testing.T) {
	c, err := newMultiRoundCase(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	other, err := newMultiRoundCase(77, 120)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MRBobFinish(c.coins, c.bob, c.st, c.msg3)
	if err != nil {
		t.Fatal(err)
	}
	rounds := [][]byte{bytes.Clone(c.probe), bytes.Clone(c.msg1), bytes.Clone(c.msg2), bytes.Clone(c.msg3)}
	dB := setutil.CloneSets(c.st.DB)
	snapshot := [3][][]uint64{setutil.CloneSets(res.Recovered), setutil.CloneSets(res.Added), setutil.CloneSets(res.Removed)}
	for i := 0; i < 3; i++ {
		if _, err := MRBobFinish(other.coins, other.bob, other.st, other.msg3); err != nil {
			t.Fatal(err)
		}
		if _, err := newMultiRoundCase(77, 120); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.EqualFunc(rounds, [][]byte{c.probe, c.msg1, c.msg2, c.msg3}, bytes.Equal) || !reflect.DeepEqual(dB, c.st.DB) {
		t.Fatal("a later exchange changed an earlier round's bytes or state")
	}
	if !reflect.DeepEqual(snapshot, [3][][]uint64{res.Recovered, res.Added, res.Removed}) || !setutil.EqualSetOfSets(res.Recovered, c.alice) {
		t.Fatal("a later exchange changed an earlier Result")
	}

	caller := append(worktest.SpansOf(c.alice), worktest.SpansOf(c.bob)...)
	for _, b := range [][]byte{c.probe, c.msg1, c.msg2, c.msg3} {
		caller = append(caller, worktest.SpanOf(b))
	}
	w := getMRWork()
	steps := map[string]func() error{
		"probe":     func() error { w.sketchChildHashes(c.coins, c.bob, c.p, 2); return nil },
		"alice1":    func() error { w.alice1(c.coins, c.alice, c.dHat); return nil },
		"bob2":      func() error { _, _, err := w.bob2(c.coins, c.bob, c.p, c.msg1); return err },
		"alice3":    func() error { _, _, err := w.alice3(c.coins, c.alice, c.p, 0, c.msg2); return err },
		"bobFinish": func() error { _, err := w.bobFinish(c.coins, c.bob, c.st, c.msg3); return err },
	}
	for name, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w.release()
		worktest.PinsNothing(t, "mrWork after "+name, w, caller...)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := []*multiRoundCase{c, other}[g%2]
			for i := 0; i < 4; i++ {
				again, err := newMultiRoundCase(c.coins.Master(), len(c.alice))
				if err != nil || !bytes.Equal(again.msg3, c.msg3) {
					t.Errorf("concurrent multi-round rounds differ (err %v)", err)
					return
				}
				res, err := MRBobFinish(again.coins, again.bob, again.st, again.msg3)
				if err != nil || !setutil.EqualSetOfSets(res.Recovered, c.alice) {
					t.Errorf("concurrent multi-round result differs (err %v)", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
