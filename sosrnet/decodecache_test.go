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
