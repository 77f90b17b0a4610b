package sosrnet

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"sosr"
	"sosr/internal/obs"
	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/internal/workload"
)

// churnStep rewrites n children of the hosted dataset through the server's
// update path and returns the parent set it now holds.
func churnStep(t *testing.T, srv *Server, name string, alice [][]uint64, src *prng.Source, n int) [][]uint64 {
	t.Helper()
	next := setutil.CloneSets(alice)
	var add, remove [][]uint64
	for _, i := range src.Perm(len(next))[:n] {
		fresh := setutil.Clone(next[i])
		fresh[src.Intn(len(fresh))] = 1<<33 + src.Uint64n(1<<30)
		fresh = setutil.Canonical(fresh)
		remove, add = append(remove, next[i]), append(add, fresh)
		next[i] = fresh
	}
	if err := srv.UpdateSetsOfSets(name, add, remove); err != nil {
		t.Fatal(err)
	}
	return next
}

// TestAdoptLoopPatchesSketch: a replica that adopts every result (update →
// reconcile → adopt, ten rounds) derives each round's sketch from the one
// before. What it recovers and what crosses the wire equal an uncached
// client's round for round; the first two sketches are built (the first
// keeps no parent: nothing said yet that it would change), every later one is
// a patch of the children the last update changed, and the cache ends with
// the one sketch.
func TestAdoptLoopPatchesSketch(t *testing.T) {
	const rounds, perRound = 10, 3
	alice, _ := workload.PlantedSetsOfSets(23, 300, 8, 1<<32, 0)
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	cfg := sosr.Config{Seed: 61, Protocol: sosr.ProtocolCascade, KnownDiff: 2 * perRound, MaxChildSets: 300, MaxChildSize: 8, Universe: 1 << 34}
	cached, plain := Dial(addr), Dial(addr)
	plain.CacheBytes = -1
	cached.Obs = obs.NewRegistry()
	cached.Trace = &obs.Tracer{SampleRate: 1}
	for _, c := range []*Client{cached, plain} {
		c.Timeout = 60 * time.Second
		t.Cleanup(func() { c.Close() })
	}
	src := prng.New(99)
	bob, bobPlain := setutil.CloneSets(alice), setutil.CloneSets(alice)
	var last [][]uint64 // the parent the resident sketch covers
	for r := 0; r < rounds; r++ {
		alice = churnStep(t, srv, "docs", alice, src, perRound)
		last = bob
		got, ns, err := cached.SetsOfSets(context.Background(), "docs", bob, cfg)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		want, wantNS, err := plain.SetsOfSets(context.Background(), "docs", bobPlain, cfg)
		if err != nil {
			t.Fatalf("round %d uncached: %v", r, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: result differs from the uncached client's", r)
		}
		// WireOut aside: the traced client's hello carries its span identity.
		if ns.Protocol != wantNS.Protocol || ns.WireIn != wantNS.WireIn || ns.Attempts != wantNS.Attempts {
			t.Fatalf("round %d: net stats %+v, uncached %+v", r, ns, wantNS)
		}
		if !setutil.EqualSetOfSets(got.Recovered, alice) {
			t.Fatalf("round %d: recovered set is not the server's", r)
		}
		bob, bobPlain = got.Recovered, want.Recovered
	}

	st := cached.CacheStats()
	if st.Entries != 1 || st.Hits != 0 || st.Misses != rounds {
		t.Fatalf("cache after %d rounds: %+v, want one entry, every lookup a miss", rounds, st)
	}
	if st.Bytes < int64(8*setutil.TotalSize(bob)) {
		t.Fatalf("resident bytes %d do not cover the retained parent (%d elements)", st.Bytes, setutil.TotalSize(bob))
	}
	m := registrySamples(t, cached.Obs)
	if build, patch := m[`sosr_decodecache_events_total{event="miss"}`], m[`sosr_decodecache_events_total{event="patch"}`]; build != 2 || patch != rounds-2 {
		t.Fatalf("decode-cache events: %v builds, %v patches, want 2 and %d", build, patch, rounds-2)
	}
	if m[`sosr_decodecache_events_total{event="hit"}`] != 0 {
		t.Fatal("a session of a changed parent counted a hit")
	}

	// The traces say the same, and that each patch re-encoded exactly the
	// rewritten children, out and in.
	recent := cached.Trace.Recent()
	if len(recent) != rounds {
		t.Fatalf("%d traces, want %d", len(recent), rounds)
	}
	outcomes := map[string]int{}
	for _, sum := range recent {
		tid, err := obs.ParseTraceID(sum.Trace)
		if err != nil {
			t.Fatal(err)
		}
		dsp := findSpan(cached.Trace.Get(tid).Roots, "decode")
		if dsp == nil {
			t.Fatal("trace without a decode span")
		}
		how, _ := dsp.Attrs["sketch"].(string)
		outcomes[how]++
		if how == sketchPatch {
			if got := attrInt(t, dsp, "sketch_delta"); got != 2*perRound {
				t.Errorf("patched decode re-encoded %d children, want %d", got, 2*perRound)
			}
		}
	}
	if outcomes[sketchBuild] != 2 || outcomes[sketchPatch] != rounds-2 {
		t.Fatalf("decode span outcomes %v, want 2 builds and %d patches", outcomes, rounds-2)
	}

	// The last session's parent again, as an equal copy: the resident sketch
	// is this session's own.
	if _, _, err := cached.SetsOfSets(context.Background(), "docs", setutil.CloneSets(last), cfg); err != nil {
		t.Fatal(err)
	}
	if st := cached.CacheStats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("repeat session of the sketched parent: %+v, want one hit", st)
	}
}

// TestOversizedSketchNotRetained: a sketch too large for CacheBytes leaves
// nothing resident, so its successor has no predecessor and is built.
func TestOversizedSketchNotRetained(t *testing.T) {
	alice, bob := sosPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	c.CacheBytes = 1024 // the aggregates alone are several KB
	c.Obs = obs.NewRegistry()
	t.Cleanup(func() { c.Close() })
	cfg := sosr.Config{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	src := prng.New(3)
	for r := 0; r < 3; r++ {
		res, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !setutil.EqualSetOfSets(res.Recovered, alice) {
			t.Fatalf("round %d: wrong recovery", r)
		}
		bob = res.Recovered
		alice = churnStep(t, srv, "docs", alice, src, 2)
	}
	if st := c.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized sketches retained: %+v", st)
	}
	m := registrySamples(t, c.Obs)
	if m[`sosr_decodecache_events_total{event="miss"}`] != 3 || m[`sosr_decodecache_events_total{event="patch"}`] != 0 {
		t.Fatalf("events %v: every sketch of an unretained parent must be a build", m)
	}
}

// TestConcurrentParentsOneKey (run under -race): sessions of one Client with
// different parents share one cache key, so each lookup may find the other's
// sketch resident, wait on the other's build, or have its sketch replaced
// while it is still subtracting it. Every session must still recover the
// server's set: a session only ever subtracts a sketch of its own parent.
func TestConcurrentParentsOneKey(t *testing.T) {
	// One base parent; the server holds it with 6 element edits, one replica
	// holds it unedited and the other with 10 other edits.
	alice, bobA := workload.PlantedSetsOfSets(29, 400, 8, 1<<32, 6)
	bobB, _ := workload.PlantedSetsOfSets(29, 400, 8, 1<<32, 10)
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	c.Timeout = 60 * time.Second
	c.Obs = obs.NewRegistry()
	t.Cleanup(func() { c.Close() })
	cfg := sosr.Config{Seed: 77, Protocol: sosr.ProtocolCascade, KnownDiff: 24, MaxChildSets: 400, MaxChildSize: 10}
	session := func(bob [][]uint64) bool {
		res, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
		if err != nil {
			t.Errorf("session: %v", err)
			return false
		}
		if !setutil.EqualSetOfSets(res.Recovered, alice) {
			t.Error("session recovered the wrong parent set")
			return false
		}
		return true
	}
	// In turn first — build, build (now with its parent), patch — so that
	// whichever way the goroutines interleave, every supersession below has a
	// predecessor to derive from.
	const warm = 3
	for _, bob := range [warm][][]uint64{bobA, bobB, bobA} {
		if !session(bob) {
			return
		}
	}
	if m := registrySamples(t, c.Obs); m[`sosr_decodecache_events_total{event="patch"}`] != 1 {
		t.Fatalf("A, B, A in turn: %v patches, want 1", m[`sosr_decodecache_events_total{event="patch"}`])
	}
	const perParent, sessions = 2, 12
	var wg sync.WaitGroup
	for _, bob := range [][][]uint64{bobA, bobB} {
		for g := 0; g < perParent; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < sessions && session(bob); i++ {
				}
			}()
		}
	}
	wg.Wait()
	st := c.CacheStats()
	if st.Entries != 1 {
		t.Fatalf("two parents under one key left %d entries", st.Entries)
	}
	if lookups := st.Hits + st.Misses + st.Shared; lookups != warm+2*perParent*sessions {
		t.Fatalf("cache saw %d lookups for %d sessions: %+v", lookups, warm+2*perParent*sessions, st)
	}
}
