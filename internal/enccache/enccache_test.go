package enccache

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sosr/internal/raceflag"
)

func key(i int) Key {
	return Key{Dataset: "ds", Version: 1, Proto: "cascade", Seed: uint64(i), S: 10, H: 10, U: 100, D: 4, DHat: 4}
}

// TestGetOrComputeCachesAndHits: the built entry waits in probation, and the
// next lookup is a hit that moves it to main; only that one is a promotion.
func TestGetOrComputeCachesAndHits(t *testing.T) {
	c := New(1 << 20)
	builds := 0
	build := func() ([]byte, error) { builds++; return []byte("payload"), nil }
	for i := 0; i < 5; i++ {
		got, err := c.GetOrCompute(key(1), build)
		if err != nil || !bytes.Equal(got, []byte("payload")) {
			t.Fatalf("lookup %d: %q, %v", i, got, err)
		}
		if inMain(c, key(1)) != (i > 0) {
			t.Fatalf("lookup %d: in main = %v", i, i == 0)
		}
	}
	if builds != 1 {
		t.Fatalf("builder ran %d times, want 1", builds)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 4 || st.Entries != 1 || st.Promotions != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// resident looks k up without ever adding to the cache: a hit returns the
// cached frames and never runs the builder, and the builder's error — which it
// reports ok = false by — is not cached.
func resident(t *testing.T, c *Cache, k Key) (frames [][]byte, ok bool) {
	t.Helper()
	ok = true
	frames, err := c.GetOrComputeFrames(k, func() ([][]byte, error) {
		ok = false
		return nil, errors.New("not resident")
	})
	if ok != (err == nil) {
		t.Fatalf("lookup of %+v: builder ran = %v, err = %v", k, !ok, err)
	}
	return frames, ok
}

func TestVersionChangeMissesWithoutInvalidation(t *testing.T) {
	c := New(1 << 20)
	k1 := key(1)
	k2 := k1
	k2.Version = 2
	if _, err := c.GetOrCompute(k1, func() ([]byte, error) { return []byte("v1"), nil }); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetOrCompute(k2, func() ([]byte, error) { return []byte("v2"), nil })
	if err != nil || string(got) != "v2" {
		t.Fatalf("post-update lookup: %q, %v", got, err)
	}
	// The stale v1 entry is still resident (bounded by LRU), never served
	// for the new version.
	if got, ok := resident(t, c, k1); !ok || string(got[0]) != "v1" {
		t.Fatal("old version entry lost prematurely")
	}
}

func TestLRUEvictionBoundsBytes(t *testing.T) {
	c := New(1024)
	payload := make([]byte, 100)
	for i := 0; i < 50; i++ {
		if _, err := c.GetOrCompute(key(i), func() ([]byte, error) {
			return append([]byte(nil), payload...), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > 1024 {
		t.Fatalf("cache holds %d bytes, bound 1024", st.Bytes)
	}
	if st.Entries == 0 || st.Entries > 10 {
		t.Fatalf("entries %d outside (0, 10]", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatalf("bound enforced but no evictions counted: %+v", st)
	}
	// Most recent keys survive; the earliest were evicted.
	if _, ok := resident(t, c, key(49)); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := resident(t, c, key(0)); ok {
		t.Fatal("oldest entry survived a full wrap")
	}
}

// TestOversizedPayloadNotRetained: half the bound is the largest entry kept,
// in probation too, where it is kept alone; a larger one is not retained and
// leaves every other entry where it was.
func TestOversizedPayloadNotRetained(t *testing.T) {
	c := New(1024)
	big := make([]byte, 600) // > maxBytes/2
	got, err := c.GetOrCompute(key(1), func() ([]byte, error) { return big, nil })
	if err != nil || len(got) != 600 {
		t.Fatalf("oversized build: %d bytes, %v", len(got), err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized payload retained: %+v", st)
	}
	for range 2 {
		if _, err := c.GetOrCompute(key(2), sized(300)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GetOrCompute(key(3), sized(512)); err != nil {
		t.Fatal(err)
	}
	if n, bytes := checkSegments(t, c); n != 1 || bytes != 512 || !inMain(c, key(2)) {
		t.Fatalf("half the bound not kept beside a proven entry: probation %d entries of %d bytes", n, bytes)
	}
	if _, err := c.GetOrCompute(key(1), func() ([]byte, error) { return big, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 812 || st.Evictions != 0 {
		t.Fatalf("an oversized payload moved the cache: %+v", st)
	}
}

func TestSingleflightCoalescesConcurrentBuilds(t *testing.T) {
	c := New(1 << 20)
	var builds atomic.Int64
	release := make(chan struct{})
	build := func() ([]byte, error) {
		builds.Add(1)
		<-release
		return []byte("once"), nil
	}
	const workers = 16
	var wg sync.WaitGroup
	results := make([][]byte, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got, err := c.GetOrCompute(key(7), build)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
			results[w] = got
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let the herd pile onto the in-flight call
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times under contention, want 1", n)
	}
	for w, got := range results {
		if string(got) != "once" {
			t.Fatalf("worker %d got %q", w, got)
		}
	}
}

func TestBuildErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	calls := 0
	if _, err := c.GetOrCompute(key(3), func() ([]byte, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if got, err := c.GetOrCompute(key(3), func() ([]byte, error) { calls++; return []byte("ok"), nil }); err != nil || string(got) != "ok" {
		t.Fatalf("retry after error: %q, %v", got, err)
	}
	if calls != 2 {
		t.Fatalf("builder ran %d times, want 2 (error must not be cached)", calls)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(i % 20)
				want := fmt.Sprintf("payload-%d", i%20)
				got, err := c.GetOrCompute(k, func() ([]byte, error) { return []byte(want), nil })
				if err != nil || string(got) != want {
					t.Errorf("worker %d: key %d -> %q, %v", w, i%20, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBuilderPanicDoesNotWedgeKey: a panicking builder must complete the
// in-flight call (waiters get an error, the panic propagates to the caller)
// and deregister the key so later lookups run a fresh build.
func TestBuilderPanicDoesNotWedgeKey(t *testing.T) {
	c := New(1 << 20)
	release := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		// Piggyback on the in-flight panicking build.
		<-release
		_, err := c.GetOrCompute(key(9), func() ([]byte, error) { return []byte("waiter"), nil })
		waiterErr <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("builder panic did not propagate")
			}
		}()
		_, _ = c.GetOrCompute(key(9), func() ([]byte, error) {
			close(release)
			// Panic only after the waiter has registered on this in-flight
			// call, so the assertion below is deterministic.
			for i := 0; i < 5000 && c.Stats().Shared == 0; i++ {
				time.Sleep(time.Millisecond)
			}
			panic("builder exploded")
		})
	}()
	select {
	case err := <-waiterErr:
		if err == nil {
			t.Fatal("waiter piggybacked on a panicked build without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged on the panicked key")
	}
	// The key is free again: a fresh lookup builds normally.
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, err := c.GetOrCompute(key(9), func() ([]byte, error) { return []byte("recovered"), nil })
		if err != nil || string(got) != "recovered" {
			t.Errorf("post-panic lookup: %q, %v", got, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("key remained wedged after builder panic")
	}
}

func TestGetOrComputeFramesCachesCompositeValues(t *testing.T) {
	c := New(1 << 20)
	builds := 0
	want := [][]byte{[]byte("sig-frame"), []byte("edge-frame"), []byte("meta")}
	build := func() ([][]byte, error) { builds++; return want, nil }
	k := Key{Dataset: "g", Version: 2, Proto: "graph-degree", Seed: 9, D: 2}
	for i := 0; i < 4; i++ {
		got, err := c.GetOrComputeFrames(k, build)
		if err != nil || len(got) != len(want) {
			t.Fatalf("lookup %d: %d frames, %v", i, len(got), err)
		}
		for j := range want {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("lookup %d frame %d diverges", i, j)
			}
		}
	}
	if builds != 1 {
		t.Fatalf("builder ran %d times, want 1", builds)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != int64(len("sig-frame")+len("edge-frame")+len("meta")) {
		t.Fatalf("composite size accounting wrong: %+v", st)
	}
	if frames, ok := resident(t, c, k); !ok || len(frames) != 3 {
		t.Fatalf("resident composite entry missed")
	}
	// The single-frame lookup must not hand back a composite value.
	if got, err := c.GetOrCompute(k, func() ([]byte, error) { return nil, errors.New("built") }); err == nil || got != nil {
		t.Fatalf("GetOrCompute returned a multi-frame entry as a single payload: %q, %v", got, err)
	}
}

func TestExtraFieldSeparatesKeys(t *testing.T) {
	c := New(1 << 20)
	base := Key{Dataset: "f", Version: 0, Proto: "forest", Seed: 3, D: 2}
	ka, kb := base, base
	ka.Extra = "n=100,depth=4"
	kb.Extra = "n=100,depth=5"
	va, err := c.GetOrCompute(ka, func() ([]byte, error) { return []byte("plan-a"), nil })
	if err != nil {
		t.Fatal(err)
	}
	vb, err := c.GetOrCompute(kb, func() ([]byte, error) { return []byte("plan-b"), nil })
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(va, vb) {
		t.Fatal("distinct Extra strings shared one cache entry")
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCompositeEvictionUsesTotalSize(t *testing.T) {
	c := New(100)
	big := [][]byte{make([]byte, 30), make([]byte, 31)} // 61 bytes > maxBytes/2
	if _, err := c.GetOrComputeFrames(Key{Proto: "big"}, func() ([][]byte, error) { return big, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized composite retained: %+v", st)
	}
	// Two 40-byte composites, each looked up again so that both leave
	// probation, fit; a third exceeds the bound and evicts the older one.
	mk := func(i int) Key { return Key{Proto: "c", Seed: uint64(i)} }
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrComputeFrames(mk(i), func() ([][]byte, error) {
			return [][]byte{make([]byte, 20), make([]byte, 20)}, nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, ok := resident(t, c, mk(i)); !ok {
			t.Fatalf("composite %d not resident", i)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 80 || st.Promotions != 2 {
		t.Fatalf("two composites should fit: %+v", st)
	}
	if _, err := c.GetOrComputeFrames(mk(2), func() ([][]byte, error) {
		return [][]byte{make([]byte, 40)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Bytes > 100 || st.Entries != 2 {
		t.Fatalf("eviction did not bound composite bytes: %+v", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1: %+v", st.Evictions, st)
	}
	if _, ok := resident(t, c, mk(0)); ok {
		t.Fatal("LRU tail survived eviction")
	}
}

func TestGetOrComputeValueCachesAndEvicts(t *testing.T) {
	c := New(1000)
	k := Key{Dataset: "ds", Proto: "bob/cascade", Seed: 7}
	builds := 0
	build := func(any) (any, int64, error) {
		builds++
		return &[3]int{1, 2, 3}, 400, nil
	}
	v1, hit, err := c.GetOrComputeValue(k, nil, build)
	if err != nil || hit || builds != 1 {
		t.Fatalf("first lookup: hit=%v builds=%d err=%v", hit, builds, err)
	}
	v2, hit, err := c.GetOrComputeValue(k, nil, build)
	if err != nil || !hit || builds != 1 {
		t.Fatalf("second lookup: hit=%v builds=%d err=%v", hit, builds, err)
	}
	if v1 != v2 {
		t.Fatal("cached value not shared")
	}
	if st := c.Stats(); st.Bytes != 400 || st.Entries != 1 {
		t.Fatalf("stats after value insert: %+v", st)
	}
	// Value entries must not leak through the frame lookups.
	if got, err := c.GetOrCompute(k, func() ([]byte, error) { return nil, errors.New("built") }); err == nil || got != nil {
		t.Fatalf("GetOrCompute returned an opaque value entry: %q, %v", got, err)
	}
	if frames, _ := resident(t, c, k); len(frames) != 0 {
		t.Fatalf("GetOrComputeFrames returned an opaque value entry as %d frames", len(frames))
	}
	// Values share the byte budget with frames: two more 400-byte values,
	// each looked up twice so that it leaves probation, push the first out.
	for i := 0; i < 2; i++ {
		k2 := k
		k2.Seed = uint64(100 + i)
		for range 2 {
			if _, _, err := c.GetOrComputeValue(k2, nil, build); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, hit, _ := c.GetOrComputeValue(k, nil, build); hit {
		t.Fatal("evicted value still resident")
	}
	if st := c.Stats(); st.Evictions == 0 || st.Bytes > 1000 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestGetOrComputeValueErrorNotCached(t *testing.T) {
	c := New(0)
	k := Key{Dataset: "ds", Proto: "bob/naive"}
	boom := errors.New("boom")
	if _, _, err := c.GetOrComputeValue(k, nil, func(any) (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := c.GetOrComputeValue(k, nil, func(any) (any, int64, error) { return "ok", 2, nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry after error: %v %v %v", v, hit, err)
	}
}

// TestGetOrComputeValueReplacesStale: a resident value the caller rejects is
// a miss whose build sees it as the predecessor; the successor takes its
// place under the same key with the byte count re-accounted and in main, an
// oversized successor leaves nothing behind, and a lookup that piggybacks on
// another caller's build gets that caller's value to judge for itself.
func TestGetOrComputeValueReplacesStale(t *testing.T) {
	c := New(1000)
	k := Key{Dataset: "ds", Proto: "bob/cascade", Seed: 7}
	is := func(want int) func(any) bool { return func(v any) bool { return v.(int) == want } }
	next := func(want int, size int64) func(any) (any, int64, error) {
		return func(prev any) (any, int64, error) {
			if want == 1 && prev != nil || want > 1 && prev != want-1 {
				t.Errorf("build of %d saw predecessor %v", want, prev)
			}
			return want, size, nil
		}
	}
	if v, hit, err := c.GetOrComputeValue(k, is(1), next(1, 100)); err != nil || hit || v != 1 {
		t.Fatalf("first lookup: %v %v %v", v, hit, err)
	}
	if v, hit, err := c.GetOrComputeValue(k, is(1), next(1, 100)); err != nil || !hit || v != 1 {
		t.Fatalf("fresh lookup: %v %v %v", v, hit, err)
	}
	if v, hit, err := c.GetOrComputeValue(k, is(2), next(2, 300)); err != nil || hit || v != 2 {
		t.Fatalf("stale lookup: %v %v %v", v, hit, err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 300 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats after replacement: %+v", st)
	}
	if v, hit, _ := c.GetOrComputeValue(k, is(2), next(2, 300)); !hit || v != 2 {
		t.Fatalf("successor not resident: %v %v", v, hit)
	}
	if _, _, err := c.GetOrComputeValue(k, is(3), next(3, 600)); err != nil { // > maxBytes/2
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized successor left its stale predecessor resident: %+v", st)
	}

	// A stale value replaced straight out of probation proves its key: the
	// successor goes to main, where one-shot keys do not reach it.
	k2 := Key{Dataset: "ds", Proto: "bob/cascade", Seed: 8}
	if _, _, err := c.GetOrComputeValue(k2, is(1), next(1, 100)); err != nil {
		t.Fatal(err)
	}
	if v, hit, err := c.GetOrComputeValue(k2, is(2), next(2, 100)); err != nil || hit || v != 2 {
		t.Fatalf("stale lookup from probation: %v %v %v", v, hit, err)
	}
	if st := c.Stats(); !inMain(c, k2) || st.Promotions != 2 {
		t.Fatalf("stale replacement not promoted: %+v", st)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.GetOrCompute(key(i), sized(400)); err != nil {
			t.Fatal(err)
		}
	}
	if v, hit, _ := c.GetOrComputeValue(k2, is(2), next(3, 100)); !hit || v != 2 {
		t.Fatalf("one-shot keys displaced the replaced value: %v %v", v, hit)
	}

	// Two callers wanting different values under one key: the second waits on
	// the first's build and is handed a value its own check rejects.
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan any)
	go func() {
		v, _, _ := c.GetOrComputeValue(k, is(4), func(any) (any, int64, error) {
			close(started)
			<-release
			return 4, 10, nil
		})
		done <- v
	}()
	<-started
	go func() {
		v, hit, _ := c.GetOrComputeValue(k, is(5), func(any) (any, int64, error) {
			t.Error("piggybacking lookup ran its own build")
			return 5, 10, nil
		})
		if hit {
			t.Error("piggybacked lookup reported a hit")
		}
		done <- v
	}()
	for c.Stats().Shared == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if a, b := <-done, <-done; a != 4 || b != 4 {
		t.Fatalf("coalesced lookups returned %v and %v, want the one build's value", a, b)
	}
}

// checkSegments verifies the three rings against the maps and the byte
// counts, and returns probation's entries and bytes.
func checkSegments(t *testing.T, c *Cache) (probN int, probBytes int64) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	count := func(s *segment, m map[Key]*entry) {
		n, bytes := 0, int64(0)
		for e := s.root.next; e != &s.root; e = e.next {
			if e.next.prev != e || e.seg != s || m[e.key] != e {
				t.Fatalf("entry %+v is not linked where the map says", e.key)
			}
			n++
			bytes += e.size
		}
		if n != s.n || bytes != s.bytes {
			t.Fatalf("segment holds %d entries of %d bytes, counted %d of %d", n, bytes, s.n, s.bytes)
		}
	}
	count(&c.main, c.entries)
	count(&c.probation, c.entries)
	if n, total := c.main.n+c.probation.n, c.main.bytes+c.probation.bytes; n != len(c.entries) || total > c.maxBytes {
		t.Fatalf("rings hold %d entries of %d bytes; map %d, bound %d", n, total, len(c.entries), c.maxBytes)
	}
	// The ghost ring: every fingerprint the map holds names its newest
	// record, every record still counting bytes is remembered, and the
	// records and what they held stay within their bounds.
	g := &c.ghost
	var held int64
	for i := range g.n {
		rec := g.recs[(g.head+i)%len(g.recs)]
		if seq, ok := g.at[rec.fp]; rec.size != 0 && (!ok || seq < g.first+uint64(i)) {
			t.Fatalf("ghost record %d of %d bytes is not remembered", i, rec.size)
		}
		held += rec.size
	}
	for fp, seq := range g.at {
		if seq < g.first || seq >= g.first+uint64(g.n) || g.recs[(g.head+int(seq-g.first))%len(g.recs)].fp != fp {
			t.Fatalf("fingerprint %x names record %d, the ring holds %d from %d", fp, seq, g.n, g.first)
		}
	}
	if held != g.bytes || g.n > 1 && (g.bytes > c.maxBytes || int64(g.n)*ghostBytes > c.maxBytes/probationShare) {
		t.Fatalf("%d ghost records of %d bytes (counted %d); bounds %d bytes and %d records", g.n, g.bytes, held, c.maxBytes, c.maxBytes/probationShare/ghostBytes)
	}
	for k := range c.entries {
		if _, ok := g.at[maphash.Comparable(c.seed, k)]; ok {
			t.Fatalf("resident key %+v is remembered as dropped", k)
		}
	}
	n := 0
	for e := c.free; e != nil; e = e.next {
		if e.key != (Key{}) || e.frames != nil || e.val != nil || e.seg != nil {
			t.Fatalf("a kept entry still holds %+v", e.key)
		}
		n++
	}
	if n != c.nfree || n > maxFree {
		t.Fatalf("%d entries kept, counted %d, bound %d", n, c.nfree, maxFree)
	}
	return c.probation.n, c.probation.bytes
}

// inMain reports whether k is resident in the main segment, without the
// lookup that would itself promote it.
func inMain(c *Cache, k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	return e != nil && e.seg == &c.main
}

func sized(n int) func() ([]byte, error) {
	return func() ([]byte, error) { return make([]byte, n), nil }
}

// TestOneShotFloodKeepsProvenEntry: keys asked for once — a session's fresh
// coins — only ever displace each other. A proven entry, the least recently
// used one in the cache, survives ten thousand of them of every size up to
// half the bound, and probation never holds more than an eighth of the bound
// unless it is a single entry.
func TestOneShotFloodKeepsProvenEntry(t *testing.T) {
	const maxBytes = 8000
	c := New(maxBytes)
	proven := Key{Dataset: "hot", Proto: "cascade"}
	for range 2 {
		if _, err := c.GetOrCompute(proven, sized(1000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10_000; i++ {
		if _, err := c.GetOrCompute(key(i), sized(1+i*7919%(maxBytes/2))); err != nil {
			t.Fatal(err)
		}
		if n, bytes := checkSegments(t, c); n > 1 && bytes > maxBytes/8 {
			t.Fatalf("after %d one-shot keys probation holds %d entries of %d bytes", i+1, n, bytes)
		}
		if !inMain(c, proven) {
			t.Fatalf("one-shot key %d displaced the proven entry", i)
		}
	}
	st := c.Stats()
	if st.Promotions != 1 || st.Hits != 1 || st.Misses != 10_001 || st.Evictions != uint64(10_001-st.Entries) {
		t.Fatalf("stats %+v", st)
	}
}

// TestCycledKeysHitAfterWarmup: keys asked for in turn whose payloads fill
// half the bound, four times what probation holds, are all served from memory
// from the third round on. Those probation dropped before their second
// request are remembered, so their rebuild goes straight to main.
func TestCycledKeysHitAfterWarmup(t *testing.T) {
	const maxBytes, n = 8000, 40
	c := New(maxBytes)
	for round := 0; round < 5; round++ {
		before := c.Stats()
		for i := 0; i < n; i++ {
			if _, err := c.GetOrCompute(key(i), sized(maxBytes/2/n)); err != nil {
				t.Fatal(err)
			}
			checkSegments(t, c)
		}
		if st := c.Stats(); round >= 2 && st.Misses != before.Misses {
			t.Fatalf("round %d: %d of %d lookups missed (%+v)", round, st.Misses-before.Misses, n, st)
		}
	}
	// Forty misses in the first round, then the thirty probation dropped.
	if st := c.Stats(); st.Promotions != n || st.Entries != n || st.Misses != 70 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheAllocBudget: the segments are rings through the entries
// themselves, a finished call nobody waited on serves the next miss, and an
// entry the cache drops serves a later insert, so a lookup allocates nothing
// beyond what its builder returns: a hit, a promotion out of probation, an
// in-place replacement, a rebuild of a ghost's key, a miss that fails and — once
// the ghost ring has forgotten an entry — a miss that builds and evicts are
// all free. A miss nobody waits on makes no channel.
func TestCacheAllocBudget(t *testing.T) {
	const runs = 100
	c := New(1 << 30)
	keys := make([]Key, runs+1)
	for i := range keys {
		keys[i] = key(i)
	}
	insert := func(k Key, size int64) {
		c.mu.Lock()
		c.insert(k, value{}, size)
		c.mu.Unlock()
	}
	for _, k := range keys {
		insert(k, 1)
	}
	errUnbuilt := errors.New("not resident")
	unbuilt := func() ([][]byte, error) { return nil, errUnbuilt }
	next := 0
	lookup := func() {
		if _, err := c.GetOrComputeFrames(keys[next], unbuilt); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if n := testing.AllocsPerRun(runs, lookup); n != 0 || c.Stats().Promotions != runs+1 {
		t.Errorf("a promotion allocates %.0f objects (%+v)", n, c.Stats())
	}
	next = 0
	if n := testing.AllocsPerRun(runs, lookup); n != 0 {
		t.Errorf("a hit allocates %.0f objects", n)
	}
	next = 0
	if n := testing.AllocsPerRun(runs, func() { insert(keys[next], 2); next++ }); n != 0 {
		t.Errorf("an in-place replacement allocates %.0f objects", n)
	}
	next = runs + 1
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := c.GetOrComputeFrames(key(next), unbuilt); err == nil {
			t.Fatal("a failed build was served")
		}
		next++
	}); n != 0 {
		t.Errorf("a miss that fails allocates %.0f objects", n)
	}
	if c.spare == nil || c.spare.done != nil {
		t.Errorf("the call of a miss nobody waited on is not kept, or made a channel: %+v", c.spare)
	}

	// An 8000-byte bound of 1600-byte entries: four proven ones fill main to
	// 6400 bytes, probation holds one entry (1000 bytes or one entry), and its
	// ring remembers the five keys it dropped last. From the third miss on,
	// each one reuses the entry the one before evicted.
	c = New(8000)
	payload := [][]byte{make([]byte, 1600)}
	built := func() ([][]byte, error) { return payload, nil }
	miss := func() {
		if _, err := c.GetOrComputeFrames(key(next), built); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range 4 {
		miss()
		next--
		miss() // a hit: promoted to main
	}
	for range 6 {
		miss()
	}
	before := c.Stats()
	if n := testing.AllocsPerRun(runs, miss); n != 0 || c.Stats().Misses != before.Misses+runs+1 || c.Stats().Evictions != before.Evictions+runs+1 {
		t.Errorf("a miss that evicts allocates %.0f objects beyond its payload (%+v)", n, c.Stats())
	}
	if c.spare == nil || c.spare.done != nil || c.nfree == 0 {
		t.Errorf("misses nobody waited on made a channel or kept no entry: spare %+v, %d free", c.spare, c.nfree)
	}
	// The five keys probation dropped last are the ghosts. Each rebuild goes to
	// main and evicts main's tail, whose entry the next rebuild reuses.
	before = c.Stats()
	last := next - 2
	next = 0
	if n := testing.AllocsPerRun(4, func() { insert(key(last-next), 1600); next++ }); n != 0 || c.Stats().Promotions != before.Promotions+5 {
		t.Errorf("a rebuild of a ghost's key allocates %.0f objects (%+v)", n, c.Stats())
	}
	checkSegments(t, c)
}

// TestGhostHeap: a key probation drops is remembered as a fingerprint and a
// size, so one-shot keys — fresh coins every session — pin little heap once
// dropped, however small their payloads. A 1 MiB cache fed 200 000 one-shot
// 16-byte payloads holds under 2 MiB of heap in its ghosts, measured after a
// GC as what forgetting them frees: 4 096 records, 361 088 bytes on
// linux/amd64 with Go 1.24. When a ghost was a whole entry, the ring held
// 65 536 of them here, in 27 MB.
// The rest of the cache is not what this bounds: probation's eighth of the
// budget counts its 8 192 entries' payloads, not the entries.
func TestGhostHeap(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow memory is in the heap")
	}
	const maxBytes, size, keys = 1 << 20, 16, 200_000
	heap := func() int64 {
		runtime.GC() // twice: what a sync.Pool sheds survives one collection
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	c := New(maxBytes)
	for i := range keys {
		if _, err := c.GetOrCompute(key(i), sized(size)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Misses != keys || st.Entries != maxBytes/probationShare/size {
		t.Fatalf("stats %+v", st)
	}
	records := c.ghost.n
	held := heap()
	c.mu.Lock()
	c.ghost = ghostRing{at: make(map[uint64]uint64)}
	c.mu.Unlock()
	freed := held - heap()
	t.Logf("%d ghost records held %d bytes of heap", records, freed)
	if records != maxBytes/probationShare/ghostBytes || freed > 2<<20 {
		t.Errorf("%d ghost records held %d bytes of heap; want %d records in under 2 MiB", records, freed, maxBytes/probationShare/ghostBytes)
	}
	runtime.KeepAlive(c)
}

// TestConcurrentOutcomesUnderChurn: goroutines look up a few keys, with new
// versions of them coming in turn, in a cache small enough to keep evicting,
// while the builders succeed, fail and panic in turn. A lookup that ran a
// build gets that build's own value, error or panic; every other lookup gets
// the value or error of a finished build of its key — never a build that
// another of its key's builds had followed before the lookup began, since
// builds of one key run one after the other. No call a lookup was seen
// waiting on is kept for reuse, the rings hold their invariants throughout,
// and every lookup is counted once: a hit, a miss or a shared one. Run it
// under -race too: a waiter reads its call without the lock.
func TestConcurrentOutcomesUnderChurn(t *testing.T) {
	const workers, lookups, keys = 8, 240, 3
	c := New(64)
	type record struct {
		dataset  string
		start    int64 // on clock
		done, ok bool
	}
	var (
		clock, builds atomic.Int64
		mu            sync.Mutex
		records       = map[int64]record{}
	)
	lookup := func(w, j int) {
		k := Key{Dataset: fmt.Sprintf("k%d.v%d", j%keys, j/(4*keys)), Proto: "cascade"}
		start := clock.Add(1)
		own := int64(-1)
		panicked := false
		got, err := func() ([]byte, error) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			return c.GetOrCompute(k, func() ([]byte, error) {
				id := builds.Add(1)
				own = id
				mu.Lock()
				records[id] = record{dataset: k.Dataset, start: clock.Add(1)}
				mu.Unlock()
				time.Sleep(200 * time.Microsecond)
				mu.Lock()
				records[id] = record{dataset: k.Dataset, start: records[id].start, done: true, ok: id%3 == 0}
				mu.Unlock()
				switch id % 3 {
				case 0:
					return fmt.Appendf(nil, "%d %s %*s", id, k.Dataset, id%16, ""), nil
				case 1:
					return nil, fmt.Errorf("%d %s failed", id, k.Dataset)
				}
				panic("builder exploded")
			})
		}()
		end := clock.Add(1)
		var id int64
		var dataset string
		switch {
		case own >= 0 && own%3 == 2:
			if !panicked {
				t.Errorf("lookup %d/%d: its builder panicked, the lookup did not (%q, %v)", w, j, got, err)
			}
			return
		case panicked:
			t.Errorf("lookup %d/%d: panicked without running a build", w, j)
			return
		case err == nil:
			fmt.Sscanf(string(got), "%d %s", &id, &dataset)
		case strings.Contains(err.Error(), "builder panicked"):
			if own >= 0 || !strings.Contains(err.Error(), fmt.Sprintf("%q", k.Dataset)) {
				t.Errorf("lookup %d/%d of %s (own build %d): %v", w, j, k.Dataset, own, err)
			}
			return
		default:
			fmt.Sscanf(err.Error(), "%d %s", &id, &dataset)
		}
		mu.Lock()
		defer mu.Unlock()
		rec, found := records[id]
		switch {
		case !found || !rec.done || dataset != k.Dataset || rec.dataset != k.Dataset || rec.ok != (err == nil) || rec.start > end:
			t.Errorf("lookup %d/%d of %s got build %d's %q, %v (record %+v)", w, j, k.Dataset, id, got, err, rec)
		case own >= 0 && own != id:
			t.Errorf("lookup %d/%d ran build %d and got build %d's result", w, j, own, id)
		}
		for later, r := range records {
			if r.dataset == k.Dataset && rec.start < r.start && r.start < start {
				t.Errorf("lookup %d/%d of %s got build %d's result, but build %d had followed it", w, j, k.Dataset, id, later)
			}
		}
	}

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range lookups {
				lookup(w, j)
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	// A failed check below ends the test once the lookups have, unless a
	// broken cache has wedged them.
	defer func() {
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
		}
	}()
	seen := map[*call]bool{}
	for running := true; running; {
		select {
		case <-finished:
			running = false
		case <-time.After(20 * time.Microsecond):
		}
		checkSegments(t, c)
		c.mu.Lock()
		for _, cl := range c.inflight {
			if cl.done != nil {
				seen[cl] = true
			}
		}
		reused := seen[c.spare]
		c.mu.Unlock()
		if reused {
			t.Fatal("a call a lookup waited on was kept for reuse")
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses+st.Shared != workers*lookups || st.Misses != uint64(builds.Load()) {
		t.Fatalf("%d lookups, %d builds, counted %+v", workers*lookups, builds.Load(), st)
	}
	if st.Shared == 0 || len(seen) == 0 {
		t.Fatalf("no lookup waited on another's build (%d calls seen waited on): %+v", len(seen), st)
	}
	t.Logf("%d builds, %d calls seen waited on: %+v", builds.Load(), len(seen), st)
}
