package core

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"sosr/internal/hashing"
	"sosr/internal/raceflag"
	"sosr/internal/setutil"
	"sosr/internal/workload"
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
// d=32) a cached decode allocated 97 objects before the workspace; what is
// left is the Result and its packed copies.
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
	if got > 40 {
		t.Fatalf("cached cascade decode allocates %.0f/op, budget 40", got)
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
		w := new(cascadeWork)
		if _, err := w.run(c.coins, newCascadePlan(c.coins, c.p, c.d), c.msg, c.bob, sk); err != nil {
			t.Fatal(err)
		}
		w.release()

		type span struct{ lo, hi uintptr }
		caller := []span{{uintptr(unsafe.Pointer(&c.msg[0])), uintptr(unsafe.Pointer(&c.msg[0])) + uintptr(len(c.msg))}}
		for _, cs := range c.bob {
			if len(cs) > 0 {
				lo := uintptr(unsafe.Pointer(&cs[0]))
				caller = append(caller, span{lo, lo + uintptr(8*len(cs))})
			}
		}
		if sk != nil {
			lo := uintptr(unsafe.Pointer(&sk.bobHashes[0]))
			caller = append(caller, span{lo, lo + uintptr(8*len(sk.bobHashes))})
		}
		inCaller := func(p uintptr) bool {
			for _, s := range caller {
				if p >= s.lo && p < s.hi {
					return true
				}
			}
			return false
		}
		var walk func(path string, v reflect.Value)
		walk = func(path string, v reflect.Value) {
			switch v.Kind() {
			case reflect.Slice:
				if v.Cap() > 0 && inCaller(v.Pointer()) {
					t.Errorf("%s still points into caller data", path)
				}
				full := v.Slice3(0, v.Cap(), v.Cap()) // stale entries past len pin memory too
				if k := full.Type().Elem().Kind(); k == reflect.Slice || k == reflect.Struct || k == reflect.Pointer {
					for i := 0; i < full.Len(); i++ {
						walk(path+"[]", full.Index(i))
					}
				}
			case reflect.Map:
				if v.Len() != 0 {
					t.Errorf("%s holds %d entries after release", path, v.Len())
				}
			case reflect.Struct:
				for i := 0; i < v.NumField(); i++ {
					walk(path+"."+v.Type().Field(i).Name, v.Field(i))
				}
			case reflect.Pointer:
				if !v.IsNil() {
					walk(path, v.Elem())
				}
			}
		}
		walk("cascadeWork", reflect.ValueOf(w))
		if w.bob != nil || w.bobHashes != nil {
			t.Error("released workspace keeps the run's inputs")
		}
	}
}
