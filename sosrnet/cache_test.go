package sosrnet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/setutil"
	"sosr/internal/shardmap"
	"sosr/internal/store"
	"sosr/internal/wire"
	"sosr/internal/worktest"
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

// TestLiveDigestAcrossUniverseBoundary: a shape that leaves u to derive
// follows the data across a key width. The hosted data lies below 2^32 and a
// live digest serves it; an update puts one element at 2^32 + 5 into a child,
// which that digest cannot hold (it is dropped, not patched), and the next
// session runs at u = 2^40; an update takes the element out again and the
// session after it runs at u = 2^32, with the bytes a fresh build of the same
// data sent. Every session verifies against the in-process run, and the TCP
// bytes are its Stats plus the itemised framing of each session.
func TestLiveDigestAcrossUniverseBoundary(t *testing.T) {
	alice, bob := sosPair()
	var finished atomic.Int64
	srv, addr, cl := startServer(t, func(s *Server) {
		s.Logger = slog.New(worktest.Handler(func(r slog.Record) {
			if r.Message == "session finished" {
				finished.Add(1)
			}
		}))
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	ds, err := srv.byName("docs")
	if err != nil {
		t.Fatal(err)
	}
	// liveAt reports whether a live digest of universe u serves the dataset.
	liveAt := func(u uint64) bool {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		for lk := range ds.live {
			if lk.u == u {
				return true
			}
		}
		return false
	}
	cfg := sosr.Config{Seed: 9, Protocol: sosr.ProtocolCascade, KnownDiff: 24,
		MaxChildSets: len(alice) + 2, MaxChildSize: setutil.MaxChildLen(alice) + 2}
	c := Dial(addr)
	c.Timeout = 60 * time.Second
	var tcp, sessions int64
	// session reconciles against the hosted data, which is now data, and
	// checks it at universe u; it returns the protocol bytes.
	session := func(data [][]uint64, u uint64) sosr.Stats {
		t.Helper()
		want, err := sosr.ReconcileSetsOfSets(data, bob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, ns, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Recovered, want.Recovered) {
			t.Fatalf("at u = %d the client did not recover the hosted data", u)
		}
		checkNetStats(t, ns, want.Stats)
		_, need, _ := core.Params{}.Resolve(bob, core.Params{})
		hello := helloMsg{
			V: protoVersion, Kind: KindSetsOfSets, Dataset: "docs", Seed: cfg.Seed, D: cfg.KnownDiff, Protocol: "cascade",
			S: cfg.MaxChildSets, H: cfg.MaxChildSize, CS: len(bob), CH: need.H, CU: need.U,
		}
		accept := acceptMsg{
			V: protoVersion, Kind: KindSetsOfSets, D: cfg.KnownDiff, Protocol: "cascade",
			DHat: 24, Replicas: 3, S: cfg.MaxChildSets, H: cfg.MaxChildSize, U: u,
		}
		done := doneMsg{OK: true, Rounds: 1, Bytes: want.Stats.TotalBytes, Messages: 1, Attempts: 1}
		framing := int64(wire.FrameSize(lblHello, len(appendCtl(nil, helloFields, &hello))) +
			wire.FrameSize(lblAccept, len(appendCtl(nil, acceptFields, &accept))) +
			wire.Overhead("cascade-iblts") +
			wire.FrameSize(lblDone, len(appendCtl(nil, doneFields, &done))))
		if ns.Overhead != framing {
			t.Fatalf("at u = %d: overhead %d, itemised %d", u, ns.Overhead, framing)
		}
		tcp += int64(want.Stats.TotalBytes) + framing
		sessions++
		waitFor(t, "server to finish the session", func() bool { return finished.Load() == sessions })
		if got := cl.Bytes.Load(); got != tcp {
			t.Fatalf("at u = %d: TCP bytes %d, in-process Stats plus framing %d", u, got, tcp)
		}
		return ns.Protocol
	}

	// A first session at v0 and a second after a small update promote the
	// key to a live digest.
	session(alice, 1<<32)
	small := setutil.CloneSets(alice)
	small[0] = setutil.Canonical(append(slices.Clone(alice[0]), 77))
	if err := srv.UpdateSetsOfSets("docs", [][]uint64{small[0]}, [][]uint64{alice[0]}); err != nil {
		t.Fatal(err)
	}
	before := session(small, 1<<32)
	if !liveAt(1 << 32) {
		t.Fatal("no live digest at u = 2^32 after the second miss")
	}

	// Across the boundary: the live digest cannot hold the element.
	wide := setutil.CloneSets(small)
	wide[1] = setutil.Canonical(append(slices.Clone(small[1]), 1<<32+5))
	if err := srv.UpdateSetsOfSets("docs", [][]uint64{wide[1]}, [][]uint64{small[1]}); err != nil {
		t.Fatal(err)
	}
	if liveAt(1 << 32) {
		t.Fatal("the u = 2^32 live digest was patched with an element of 2^32 + 5")
	}
	session(wide, 1<<40)

	// And back: the same data as before the boundary, the same bytes.
	if err := srv.UpdateSetsOfSets("docs", [][]uint64{small[1]}, [][]uint64{wide[1]}); err != nil {
		t.Fatal(err)
	}
	if after := session(small, 1<<32); after != before {
		t.Fatalf("back at u = 2^32 the session moved %+v, the same data before the boundary %+v", after, before)
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
					return s.Host(&store.Record{Name: "x", Kind: store.KindSet, Elems: setA}, topo, index)
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
					return s.Host(&store.Record{Name: "x", Kind: store.KindMultiset, Elems: bagA}, topo, index)
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
					return s.Host(&store.Record{Name: "x", Kind: store.KindSetsOfSets, Parents: sosA}, topo, index)
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
