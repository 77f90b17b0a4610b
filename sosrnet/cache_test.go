package sosrnet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sosr"
	"sosr/internal/setutil"
	"sosr/internal/shardmap"
	"sosr/internal/store"
)

// TestCacheConcurrentSessionsEncodeOnce: many concurrent sessions against
// one hot dataset with identical (seed, protocol, params) must each receive
// a payload byte-identical to the in-process run (checkNetStats equality is
// byte-level: the decoded result is hash-verified and the payload sizes
// match frame-for-frame) while the server encodes exactly once.
func TestCacheConcurrentSessionsEncodeOnce(t *testing.T) {
	alice, bob := sosPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	cfg := sosr.Config{Seed: 77, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	want, err := sosr.ReconcileSetsOfSets(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := Dial(addr)
			c.Timeout = 60 * time.Second
			got, ns, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
			if err != nil {
				errs <- fmt.Errorf("worker %d: %w", w, err)
				return
			}
			if !reflect.DeepEqual(got.Recovered, want.Recovered) {
				errs <- fmt.Errorf("worker %d: recovered parent diverges", w)
				return
			}
			if ns.Protocol != want.Stats {
				errs <- fmt.Errorf("worker %d: stats %+v != in-process %+v", w, ns.Protocol, want.Stats)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cs := srv.CacheStats()
	if cs.Misses != 1 {
		t.Fatalf("hot dataset encoded %d times across %d sessions, want 1 (%+v)", cs.Misses, workers, cs)
	}
	if cs.Hits+cs.Shared != workers-1 {
		t.Fatalf("cache served %d sessions, want %d (%+v)", cs.Hits+cs.Shared, workers-1, cs)
	}
}

// TestOneShotSessionsKeepProvenPayload: sessions that draw fresh coins ask
// for every payload once. Against a cache that holds three payloads, a
// client that keeps its seed is served from memory after any number of them:
// its payload was asked for twice, and one-shot payloads displace only each
// other. A plain LRU evicted it after the third.
func TestOneShotSessionsKeepProvenPayload(t *testing.T) {
	alice, bob := setPair()
	cfg := sosr.SetConfig{Seed: 5, KnownDiff: 24}
	want, err := sosr.ReconcileSets(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, _ := startServer(t, func(s *Server) {
		s.CacheBytes = 3 * int64(want.Stats.AliceBytes)
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	ctx := context.Background()
	fixed, fresh := Dial(addr), Dial(addr)
	t.Cleanup(func() { fixed.Close(); fresh.Close() })
	for range 2 {
		if _, _, err := fixed.Sets(ctx, "ids", bob, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 8 {
		if _, _, err := fresh.Sets(ctx, "ids", bob, sosr.SetConfig{Seed: uint64(100 + i), KnownDiff: 24}); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.CacheStats()
	if _, ns, err := fixed.Sets(ctx, "ids", bob, cfg); err != nil {
		t.Fatal(err)
	} else {
		checkNetStats(t, ns, want.Stats)
	}
	after := srv.CacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("eight one-shot sessions evicted the fixed-seed payload: %+v -> %+v", before, after)
	}
	if after.Promotions != 1 || after.Evictions < 7 {
		t.Fatalf("stats %+v: want the fixed seed's one promotion and the one-shot payloads evicting each other", after)
	}
	samples := registrySamples(t, srv.Registry())
	if got := samples[`sosr_enccache_events_total{event="promote"}`]; got != 1 {
		t.Fatalf("promote counter %v, want 1", got)
	}
}

// TestUpdateSetsOfSetsServesFreshDigest: a mutation between two sessions
// must yield the post-update payload — never a stale one — and the updated
// bytes must equal a from-scratch in-process run over the updated parent
// (the IncrementalDigest patch path is byte-exact).
func TestUpdateSetsOfSetsServesFreshDigest(t *testing.T) {
	alice, bob := sosPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	cfg := sosr.Config{Seed: 9, Protocol: sosr.ProtocolCascade, KnownDiff: 24,
		MaxChildSets: len(alice) + 2, MaxChildSize: setutil.MaxChildLen(alice) + 2}
	c := Dial(addr)
	c.Timeout = 60 * time.Second

	want1, err := sosr.ReconcileSetsOfSets(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got1, ns1, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got1.Recovered, want1.Recovered) {
		t.Fatal("pre-update recovery diverges")
	}
	checkNetStats(t, ns1, want1.Stats)

	// Mutate: drop one hosted child set, add a brand-new one.
	removed := alice[3]
	added := []uint64{90_000_001, 90_000_005, 90_000_009}
	if err := srv.UpdateSetsOfSets("docs", [][]uint64{added}, [][]uint64{removed}); err != nil {
		t.Fatal(err)
	}
	if v, err := srv.DatasetVersion("docs"); err != nil || v != 1 {
		t.Fatalf("version %d, %v; want 1", v, err)
	}
	updated := make([][]uint64, 0, len(alice))
	for i, cs := range alice {
		if i != 3 {
			updated = append(updated, cs)
		}
	}
	updated = append(updated, setutil.Canonical(added))

	want2, err := sosr.ReconcileSetsOfSets(updated, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got2, ns2, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2.Recovered, want2.Recovered) {
		t.Fatal("post-update recovery diverges from in-process run over updated parent")
	}
	if reflect.DeepEqual(got2.Recovered, want1.Recovered) {
		t.Fatal("post-update session served the stale parent set")
	}
	checkNetStats(t, ns2, want2.Stats)

	// Both sessions were cache misses (different versions).
	if cs := srv.CacheStats(); cs.Misses != 2 {
		t.Fatalf("expected 2 cache misses across the update, got %+v", cs)
	}

	// The second miss promoted the key to a live digest (second use). A
	// further mutation now patches that digest in place; the third session
	// must be byte-par with a from-scratch run over the twice-updated
	// parent — this is the incremental patch path over the wire.
	added2 := []uint64{91_000_002, 91_000_006}
	if err := srv.UpdateSetsOfSets("docs", [][]uint64{added2}, [][]uint64{updated[0]}); err != nil {
		t.Fatal(err)
	}
	updated2 := append(setutil.CloneSets(updated[1:]), setutil.Canonical(added2))
	want3, err := sosr.ReconcileSetsOfSets(updated2, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got3, ns3, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3.Recovered, want3.Recovered) {
		t.Fatal("patched-digest session diverges from in-process run")
	}
	checkNetStats(t, ns3, want3.Stats)
	if v, err := srv.DatasetVersion("docs"); err != nil || v != 2 {
		t.Fatalf("version %d, %v; want 2", v, err)
	}
}

// TestUpdateSetsOfSetsValidation: bad mutations are rejected atomically.
func TestUpdateSetsOfSetsValidation(t *testing.T) {
	alice, bob := sosPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	if err := srv.UpdateSetsOfSets("docs", nil, [][]uint64{{1, 2, 3_333_333}}); err == nil {
		t.Fatal("removing a non-hosted child set succeeded")
	}
	if err := srv.UpdateSetsOfSets("docs", [][]uint64{alice[0]}, nil); err == nil {
		t.Fatal("adding an already-hosted child set succeeded")
	}
	if err := srv.UpdateSetsOfSets("nope", nil, nil); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}
	if v, err := srv.DatasetVersion("docs"); err != nil || v != 0 {
		t.Fatalf("failed updates bumped version to %d (%v)", v, err)
	}
	// The dataset still serves.
	cfg := sosr.Config{Seed: 3, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	if _, _, err := Dial(addr).SetsOfSets(context.Background(), "docs", bob, cfg); err != nil {
		t.Fatalf("session after rejected updates: %v", err)
	}
}

// TestUpdateSetsOverTCP: plain-set updates are visible to the next session
// and byte-par with an in-process run over the updated set.
func TestUpdateSetsOverTCP(t *testing.T) {
	alice, bob := setPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	cfg := sosr.SetConfig{Seed: 5, KnownDiff: 24}
	c := Dial(addr)
	if _, _, err := c.Sets(context.Background(), "ids", bob, cfg); err != nil {
		t.Fatal(err)
	}
	if err := srv.UpdateSets("ids", []uint64{70_000_001, 70_000_002}, []uint64{alice[0]}); err != nil {
		t.Fatal(err)
	}
	updated := setutil.ApplyDiff(alice, []uint64{70_000_001, 70_000_002}, []uint64{alice[0]})
	want, err := sosr.ReconcileSets(updated, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, ns, err := c.Sets(context.Background(), "ids", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recovered, updated) {
		t.Fatal("post-update session did not serve the updated set")
	}
	checkNetStats(t, ns, want.Stats)
}

// TestConcurrentSessionsDuringUpdates: reconciliations racing live mutations
// must always succeed against a consistent snapshot (run under -race in CI).
func TestConcurrentSessionsDuringUpdates(t *testing.T) {
	alice, bob := sosPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	stop := make(chan struct{})
	var updaterWg sync.WaitGroup
	updaterWg.Add(1)
	go func() {
		defer updaterWg.Done()
		extra := [][]uint64{{80_000_001, 80_000_002}}
		present := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if present {
				err = srv.UpdateSetsOfSets("docs", nil, extra)
			} else {
				err = srv.UpdateSetsOfSets("docs", extra, nil)
			}
			if err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
			present = !present
			time.Sleep(time.Millisecond)
		}
	}()
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := Dial(addr)
			c.Timeout = 60 * time.Second
			for i := 0; i < 6; i++ {
				cfg := sosr.Config{Seed: uint64(w*100 + i), Protocol: sosr.ProtocolCascade, KnownDiff: 32}
				got, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
				if err != nil {
					t.Errorf("worker %d session %d: %v", w, i, err)
					return
				}
				// The recovered parent is hash-verified against whichever
				// snapshot the server used; it must be one of the two states.
				if n := len(got.Recovered); n != len(alice) && n != len(alice)+1 {
					t.Errorf("worker %d session %d: recovered %d child sets", w, i, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	updaterWg.Wait()
}

// TestUpdateMultisetsOverTCP: live multiset mutations bump the version, are
// served to the next session byte-par with an in-process run over the
// updated multiset, and invalid mutations are rejected atomically.
func TestUpdateMultisetsOverTCP(t *testing.T) {
	alice := []uint64{1, 1, 1, 2, 5, 5, 9, 9, 9, 9, 40}
	bob := []uint64{1, 1, 2, 2, 5, 9, 9, 9, 9, 40, 41}
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostMultiset("bag", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	c.Timeout = 30 * time.Second
	if _, _, err := c.Multiset(context.Background(), "bag", bob, 16, 3); err != nil {
		t.Fatal(err)
	}
	// Add one new element and one extra copy of 1; remove one 9 and one 5.
	if err := srv.UpdateMultisets("bag", []uint64{41, 1}, []uint64{9, 5}); err != nil {
		t.Fatal(err)
	}
	updated := []uint64{1, 1, 1, 1, 2, 5, 9, 9, 9, 40, 41}
	if v, err := srv.DatasetVersion("bag"); err != nil || v != 1 {
		t.Fatalf("version %d (%v), want 1", v, err)
	}
	wantRec, wantStats, err := sosr.ReconcileMultisets(updated, bob, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, ns, err := c.Multiset(context.Background(), "bag", bob, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantRec) {
		t.Fatalf("post-update recovered %v, want %v", got, wantRec)
	}
	checkNetStats(t, ns, wantStats)

	// Removing an occurrence the dataset does not hold is rejected whole.
	if err := srv.UpdateMultisets("bag", []uint64{123}, []uint64{777}); err == nil {
		t.Fatal("removing an absent occurrence succeeded")
	}
	// Removing more copies than present (updated holds exactly one 2).
	if err := srv.UpdateMultisets("bag", nil, []uint64{2, 2}); err == nil {
		t.Fatal("removing beyond the multiplicity succeeded")
	}
	// Overflowing the packable multiplicity.
	over := make([]uint64, 4096)
	for i := range over {
		over[i] = 40
	}
	if err := srv.UpdateMultisets("bag", over, nil); err == nil {
		t.Fatal("multiplicity overflow accepted")
	}
	// Unpackable element value.
	if err := srv.UpdateMultisets("bag", []uint64{1 << 50}, nil); err == nil {
		t.Fatal("out-of-range element accepted")
	}
	// Kind mismatch and unknown dataset.
	if err := srv.UpdateMultisets("nope", []uint64{1}, nil); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}
	// None of the rejected mutations changed anything.
	if v, _ := srv.DatasetVersion("bag"); v != 1 {
		t.Fatalf("rejected updates bumped version to %d", v)
	}
	// An empty mutation is a no-op, keeping caches warm.
	if err := srv.UpdateMultisets("bag", nil, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := srv.DatasetVersion("bag"); v != 1 {
		t.Fatal("empty update bumped the version")
	}
	got2, _, err := c.Multiset(context.Background(), "bag", bob, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	wantRec2, _, err := sosr.ReconcileMultisets(updated, bob, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, wantRec2) {
		t.Fatal("dataset changed despite rejected/empty updates")
	}
}

// TestConcurrentMultisetSessionsDuringUpdates: sessions racing live multiset
// mutations always reconcile a consistent copy-on-write snapshot — one of the
// two alternating states, never a torn mix (run under -race in CI).
func TestConcurrentMultisetSessionsDuringUpdates(t *testing.T) {
	alice := []uint64{1, 1, 1, 2, 5, 5, 9, 9, 9, 9, 40}
	bob := []uint64{1, 1, 2, 2, 5, 9, 9, 9, 9, 40, 41}
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostMultiset("bag", alice); err != nil {
			t.Fatal(err)
		}
	})
	stop := make(chan struct{})
	var updaterWg sync.WaitGroup
	updaterWg.Add(1)
	go func() {
		defer updaterWg.Done()
		present := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if present {
				err = srv.UpdateMultisets("bag", nil, []uint64{77})
			} else {
				err = srv.UpdateMultisets("bag", []uint64{77}, nil)
			}
			if err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
			present = !present
			time.Sleep(time.Millisecond)
		}
	}()
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := Dial(addr)
			c.Timeout = 60 * time.Second
			for i := 0; i < 6; i++ {
				got, _, err := c.Multiset(context.Background(), "bag", bob, 24, uint64(w*100+i))
				if err != nil {
					t.Errorf("worker %d session %d: %v", w, i, err)
					return
				}
				if n := len(got); n != len(alice) && n != len(alice)+1 {
					t.Errorf("worker %d session %d: recovered %d occurrences (torn snapshot?)", w, i, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	updaterWg.Wait()
}

// TestGraphForestCacheParity: graph and forest Alice payloads flow through
// the composite (multi-frame) cache; sessions must be byte-par with the
// in-process run whether the cache is on or off, and with the cache on a
// repeat session replays both frames without re-encoding.
func TestGraphForestCacheParity(t *testing.T) {
	base, h, err := sosr.PlantedSeparatedGraph(400, 2, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ga := sosr.PerturbGraph(base, 1, 12)
	gb := sosr.PerturbGraph(base, 1, 13)
	gcfg := sosr.GraphConfig{Seed: 14, Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: h}
	wantG, err := sosr.ReconcileGraphs(ga, gb, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	fa := sosr.RandomForest(120, 0.15, 51)
	fb := sosr.PerturbForest(fa, 3, 52)
	fcfg := sosr.ForestConfig{Seed: 53, MaxEdits: 3}
	wantF, err := sosr.ReconcileForests(fa, fb, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		cacheBytes int64
	}{{"cache-on", 0}, {"cache-off", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr, _ := startServer(t, func(s *Server) {
				s.CacheBytes = tc.cacheBytes
				if err := s.HostGraph("net", ga); err != nil {
					t.Fatal(err)
				}
				if err := s.HostForest("tree", fa); err != nil {
					t.Fatal(err)
				}
			})
			c := Dial(addr)
			c.Timeout = 60 * time.Second
			for i := 0; i < 2; i++ {
				gotG, nsG, err := c.Graph(context.Background(), "net", gb, gcfg)
				if err != nil {
					t.Fatalf("graph session %d: %v", i, err)
				}
				if !sosr.GraphsExactlyIsomorphic(gotG.Recovered, ga) {
					t.Fatalf("graph session %d: not isomorphic", i)
				}
				checkNetStats(t, nsG, wantG.Stats)
				gotF, nsF, err := c.Forest(context.Background(), "tree", fb, fcfg)
				if err != nil {
					t.Fatalf("forest session %d: %v", i, err)
				}
				if !sosr.ForestsIsomorphic(gotF.Recovered, fa) {
					t.Fatalf("forest session %d: not isomorphic", i)
				}
				checkNetStats(t, nsF, wantF.Stats)
			}
			cs := srv.CacheStats()
			if tc.cacheBytes < 0 {
				if cs.Misses != 0 || cs.Hits != 0 {
					t.Fatalf("disabled cache recorded traffic: %+v", cs)
				}
			} else {
				// One composite key per dataset, hit on each repeat session.
				if cs.Misses != 2 || cs.Hits+cs.Shared != 2 {
					t.Fatalf("composite cache counters %+v, want 2 misses + 2 hits", cs)
				}
			}
		})
	}
}

// countingStore counts the WAL appends a server makes.
type countingStore struct {
	*store.Mem
	appends atomic.Int64
}

func (c *countingStore) AppendUpdate(name string, up *store.Update) (bool, error) {
	c.appends.Add(1)
	return c.Mem.AppendUpdate(name, up)
}

// TestEmptyUpdateIsANoOp pins the rule the one update path states once: a
// mutation with nothing in it — as given, or after the shard's ownership
// filter — touches nothing. No version bump, no journal append (an fsync on a
// disk store), and the payload cache stays warm: the same session is a miss
// before and a hit after. Every kind that takes updates, hosted unsharded and
// as a shard. UpdateSets and UpdateSetsOfSets on an unsharded dataset used to
// journal the empty mutation and retire every cached payload.
func TestEmptyUpdateIsANoOp(t *testing.T) {
	ctx := context.Background()
	topo := mustTopo(t, 1, "e0:1", "e1:2")
	const index = 0
	// An element and a child set the other shard owns.
	foreign := uint64(9_000_000)
	for len(topo.OwnedElems(index, []uint64{foreign})) != 0 {
		foreign++
	}
	foreignSet := []uint64{9_100_000, 9_100_001}
	for len(topo.OwnedSets(index, [][]uint64{foreignSet})) != 0 {
		foreignSet[1]++
	}
	setA, setB := setPair()
	bagA, bagB := []uint64{1, 1, 1, 2, 5, 5, 9, 9, 40}, []uint64{1, 1, 2, 2, 5, 9, 9, 40, 41}
	sosA, sosB := sosPair()
	for _, tc := range []struct {
		kind    Kind
		host    func(s *Server, topo *shardmap.Topology) error
		update  func(s *Server, elems []uint64, sets [][]uint64) error
		session func(c *Client, topo *shardmap.Topology) error
	}{
		{KindSet,
			func(s *Server, topo *shardmap.Topology) error {
				if topo != nil {
					return s.HostSetsShard("x", setA, topo, index)
				}
				return s.HostSets("x", setA)
			},
			func(s *Server, elems []uint64, _ [][]uint64) error { return s.UpdateSets("x", elems, elems) },
			func(c *Client, topo *shardmap.Topology) error {
				local := setB
				if topo != nil {
					local = topo.OwnedElems(index, setB)
				}
				_, _, err := c.Sets(ctx, "x", local, sosr.SetConfig{Seed: 5, KnownDiff: 24})
				return err
			}},
		{KindMultiset,
			func(s *Server, topo *shardmap.Topology) error {
				if topo != nil {
					return s.HostMultisetShard("x", bagA, topo, index)
				}
				return s.HostMultiset("x", bagA)
			},
			func(s *Server, elems []uint64, _ [][]uint64) error { return s.UpdateMultisets("x", elems, elems) },
			func(c *Client, topo *shardmap.Topology) error {
				local := bagB
				if topo != nil {
					local = topo.OwnedElems(index, bagB)
				}
				_, _, err := c.Multiset(ctx, "x", local, 24, 5)
				return err
			}},
		{KindSetsOfSets,
			func(s *Server, topo *shardmap.Topology) error {
				if topo != nil {
					return s.HostSetsOfSetsShard("x", sosA, topo, index)
				}
				return s.HostSetsOfSets("x", sosA)
			},
			func(s *Server, _ []uint64, sets [][]uint64) error { return s.UpdateSetsOfSets("x", sets, sets) },
			func(c *Client, topo *shardmap.Topology) error {
				local := sosB
				if topo != nil {
					local = topo.OwnedSets(index, setutil.CanonicalSets(sosB))
				}
				_, _, err := c.SetsOfSets(ctx, "x", local, sosr.Config{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: 24})
				return err
			}},
	} {
		for _, shard := range []*shardmap.Topology{nil, topo} {
			name := fmt.Sprintf("%s sharded=%v", tc.kind, shard != nil)
			st := &countingStore{Mem: store.NewMem()}
			srv, addr, _ := startServer(t, func(s *Server) {
				s.UseStore(st)
				if err := tc.host(s, shard); err != nil {
					t.Fatal(err)
				}
			})
			c := Dial(addr)
			if shard != nil {
				c = shardClient(addr, shard, index)
			}
			if err := tc.session(c, shard); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			warm := srv.CacheStats()
			if err := tc.update(srv, nil, nil); err != nil {
				t.Fatalf("%s: empty update: %v", name, err)
			}
			if err := tc.update(srv, []uint64{}, [][]uint64{}); err != nil {
				t.Fatalf("%s: empty update: %v", name, err)
			}
			if shard != nil {
				if err := tc.update(srv, []uint64{foreign}, [][]uint64{foreignSet}); err != nil {
					t.Fatalf("%s: update owning nothing here: %v", name, err)
				}
			}
			if v, err := srv.DatasetVersion("x"); err != nil || v != 0 {
				t.Errorf("%s: version %d (%v) after empty updates, want 0", name, v, err)
			}
			if n := st.appends.Load(); n != 0 {
				t.Errorf("%s: %d journal appends for empty updates", name, n)
			}
			if got := srv.CacheStats(); got != warm {
				t.Errorf("%s: cache stats moved: %+v -> %+v", name, warm, got)
			}
			if err := tc.session(c, shard); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := srv.CacheStats(); got.Hits != warm.Hits+1 || got.Misses != warm.Misses {
				t.Errorf("%s: the session after the empty updates was not a cache hit: %+v -> %+v", name, warm, got)
			}
			c.Close()
		}
	}
}
