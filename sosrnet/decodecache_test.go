package sosrnet

import (
	"context"
	"reflect"
	"testing"
	"time"

	"sosr"
	"sosr/internal/obs"
)

// TestClientSketchCacheAcrossSessions: a client running repeated sets-of-sets
// sessions against one dataset must get byte-identical results whether it
// re-encodes its local data (cold cache, disabled cache) or subtracts the
// memoized Bob sketch (warm cache), and the second session must be a hit.
func TestClientSketchCacheAcrossSessions(t *testing.T) {
	alice, bob := sosPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	cfg := sosr.Config{Seed: 41, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	want, err := sosr.ReconcileSetsOfSets(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}

	uncached := Dial(addr)
	uncached.Timeout = 60 * time.Second
	uncached.CacheBytes = -1
	ref, refNS, err := uncached.SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Recovered, want.Recovered) {
		t.Fatal("uncached recovery diverges from in-process run")
	}
	if st := uncached.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("disabled cache recorded lookups: %+v", st)
	}

	c := Dial(addr)
	c.Timeout = 60 * time.Second
	c.Obs = obs.NewRegistry()
	got1, ns1, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st1 := c.CacheStats()
	if st1.Misses == 0 || st1.Hits != 0 {
		t.Fatalf("first session should be all misses: %+v", st1)
	}
	got2, ns2, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2 := c.CacheStats()
	if st2.Hits == 0 || st2.Misses != st1.Misses {
		t.Fatalf("second session should hit the warm cache: first %+v, second %+v", st1, st2)
	}
	for i, got := range []*sosr.Result{got1, got2} {
		if !reflect.DeepEqual(got.Recovered, want.Recovered) {
			t.Fatalf("session %d: cached recovery diverges from in-process run", i+1)
		}
	}
	// Cached subtraction must be invisible on the wire and in the stats.
	for i, ns := range []*NetStats{ns1, ns2} {
		checkNetStats(t, ns, want.Stats)
		if ns.Protocol != refNS.Protocol {
			t.Fatalf("session %d: cached stats %+v != uncached %+v", i+1, ns.Protocol, refNS.Protocol)
		}
	}

	m := c.metrics()
	if m == nil {
		t.Fatal("client metrics not registered despite Obs being set")
	}
	if m.hit.Value() != st2.Hits || m.miss.Value() != st2.Misses {
		t.Fatalf("decode-cache counters (%d hit, %d miss) diverge from CacheStats %+v",
			m.hit.Value(), m.miss.Value(), st2)
	}
	if m.peels.Count() == 0 {
		t.Fatal("peel-iterations histogram saw no decodes")
	}
}

// TestClientSketchCacheDoubling: the unknown-d doubling loop keys each
// attempt's sketch on its (coins, d, dHat) triple, so a repeat session replays
// every attempt from the cache.
func TestClientSketchCacheDoubling(t *testing.T) {
	alice, bob := sosPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	cfg := sosr.Config{Seed: 42, Protocol: sosr.ProtocolCascade} // unknown d
	want, err := sosr.ReconcileSetsOfSets(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	c.Timeout = 60 * time.Second
	got1, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st1 := c.CacheStats()
	got2, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2 := c.CacheStats()
	if !reflect.DeepEqual(got1.Recovered, want.Recovered) || !reflect.DeepEqual(got2.Recovered, want.Recovered) {
		t.Fatal("doubling recovery diverges from in-process run")
	}
	if st2.Misses != st1.Misses || st2.Hits != st1.Hits+st1.Misses {
		t.Fatalf("repeat doubling session should hit every attempt: first %+v, second %+v", st1, st2)
	}
}

// TestPullCarriesSessionDeadline: a pull is a session this server runs, under
// the deadline it gives the sessions it serves — a server left at its defaults
// pulls from a stalled peer for DefaultSessionTimeout, not for ever.
func TestPullCarriesSessionDeadline(t *testing.T) {
	for _, row := range []struct{ set, want time.Duration }{
		{0, DefaultSessionTimeout},
		{-1, 0}, // no deadline, by request
		{3 * time.Second, 3 * time.Second},
	} {
		s := NewServer()
		s.SessionTimeout = row.set
		if err := s.HostSetsOfSets("docs", [][]uint64{{1, 2}}); err != nil {
			t.Fatal(err)
		}
		ds, err := s.lookup("docs", KindSetsOfSets)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.pullClient(ds, "peer:1").Timeout; got != row.want {
			t.Errorf("SessionTimeout %v: the pull's client has Timeout %v, want %v", row.set, got, row.want)
		}
	}
}

// TestPullSetsOfSets: server-to-server anti-entropy. A pull converges the
// local dataset to the peer's; repeated pulls of an already-converged dataset
// are empty diffs served from the Bob sketch resident in the server's
// encoding cache, and the pull after an update patches that sketch.
func TestPullSetsOfSets(t *testing.T) {
	aliceData, bobData := sosPair()
	_, peerAddr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", aliceData); err != nil {
			t.Fatal(err)
		}
	})
	local, localAddr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", bobData); err != nil {
			t.Fatal(err)
		}
	})
	local.SessionTimeout = 60 * time.Second
	cfg := sosr.Config{Seed: 43, Protocol: sosr.ProtocolCascade, KnownDiff: 24}

	res, ns, err := local.PullSetsOfSets(context.Background(), "docs", peerAddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) == 0 && len(res.Removed) == 0 {
		t.Fatal("first pull found no difference between distinct datasets")
	}
	if ns == nil || ns.Protocol.TotalBytes == 0 {
		t.Fatal("pull reported no traffic")
	}
	if v, err := local.DatasetVersion("docs"); err != nil || v != 1 {
		t.Fatalf("pull did not apply the difference: version %d, %v", v, err)
	}

	// Converged: the next pulls find nothing and leave the version alone. The
	// second pull's parent is the first one's plus the applied difference; the
	// first sketch kept no parent to diff against, so the second is built too
	// — and keeps its own. The third pull subtracts the second's sketch.
	sketchEvents := func(event string) float64 {
		return registrySamples(t, local.Registry())[`sosr_decodecache_events_total{event="`+event+`"}`]
	}
	if sketchEvents("miss") != 1 || sketchEvents("patch") != 0 {
		t.Fatalf("first pull: %v sketch builds, %v patches, want 1 and 0", sketchEvents("miss"), sketchEvents("patch"))
	}
	statsBefore := local.CacheStats()
	for i := 0; i < 2; i++ {
		res, _, err := local.PullSetsOfSets(context.Background(), "docs", peerAddr, cfg)
		if err != nil {
			t.Fatalf("converged pull %d: %v", i, err)
		}
		if len(res.Added) != 0 || len(res.Removed) != 0 {
			t.Fatalf("converged pull %d still found a difference: +%d -%d", i, len(res.Added), len(res.Removed))
		}
	}
	if v, _ := local.DatasetVersion("docs"); v != 1 {
		t.Fatalf("empty pulls bumped the version to %d", v)
	}
	statsAfter := local.CacheStats()
	if statsAfter.Hits <= statsBefore.Hits {
		t.Fatalf("repeat pull did not reuse the resident sketch: before %+v, after %+v", statsBefore, statsAfter)
	}
	if sketchEvents("miss") != 2 || sketchEvents("patch") != 0 || sketchEvents("hit") != 1 {
		t.Fatalf("three pulls: %v builds, %v patches, %v hits, want 2, 0 and 1",
			sketchEvents("miss"), sketchEvents("patch"), sketchEvents("hit"))
	}
	// A local update between pulls (one child swapped for another, so the
	// derived shape and with it the key stay): the next pull patches the
	// sketch by those two children and undoes the swap.
	if err := local.UpdateSetsOfSets("docs", [][]uint64{{1 << 31, 1<<31 + 1}}, aliceData[:1]); err != nil {
		t.Fatal(err)
	}
	res, _, err = local.PullSetsOfSets(context.Background(), "docs", peerAddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) != 1 || len(res.Removed) != 1 || sketchEvents("patch") != 1 || sketchEvents("miss") != 2 {
		t.Fatalf("pull after an update: +%d -%d, %v patches, %v builds", len(res.Added), len(res.Removed), sketchEvents("patch"), sketchEvents("miss"))
	}

	// The local dataset now equals the peer's: a client holding the peer's
	// data reconciles against it with an empty diff.
	c := Dial(localAddr)
	c.Timeout = 60 * time.Second
	got, _, err := c.SetsOfSets(context.Background(), "docs", aliceData, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Added) != 0 || len(got.Removed) != 0 {
		t.Fatalf("pulled dataset still differs from the peer: +%d -%d", len(got.Added), len(got.Removed))
	}
}
