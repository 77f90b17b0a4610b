package sosrnet

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"sosr"
	"sosr/internal/setutil"
	"sosr/internal/shardmap"
	"sosr/internal/store"
)

// mustTopo builds a single-replica topology over ids at the given epoch.
func mustTopo(t *testing.T, epoch uint64, ids ...string) *shardmap.Topology {
	t.Helper()
	topo, err := shardmap.SingleReplica(epoch, ids)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// shardClient dials addr with the full shard coordinates for (topo, index).
func shardClient(addr string, topo *shardmap.Topology, index int) *Client {
	c := Dial(addr)
	c.ShardID = topo.ShardIDHash(index)
	c.ShardCount = topo.NumShards()
	c.ShardEpoch = topo.Epoch()
	c.ShardFingerprint = topo.Fingerprint()
	return c
}

// TestShardedSetHostServesOwnedSlice: a shard server holds exactly its slice
// of the logical set, reconciles it byte-par with an in-process run over the
// two slices, and rejects misrouted, stale-epoch, or shard-less sessions at
// the handshake.
func TestShardedSetHostServesOwnedSlice(t *testing.T) {
	ctx := context.Background()
	topo := mustTopo(t, 3, "s0:1", "s1:2", "s2:3")
	alice, bob := setPair()
	const index = 1
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsShard("ids", alice, topo, index); err != nil {
			t.Fatal(err)
		}
		// Unsharded dataset on the same server, to prove the misroute check
		// cuts both ways.
		if err := s.HostSets("plain", alice); err != nil {
			t.Fatal(err)
		}
	})
	aliceSlice := setutil.Canonical(topo.OwnedElems(index, alice))
	bobSlice := setutil.Canonical(topo.OwnedElems(index, bob))
	cfg := sosr.SetConfig{Seed: 11, KnownDiff: 16}
	want, err := sosr.ReconcileSets(aliceSlice, bobSlice, cfg)
	if err != nil {
		t.Fatal(err)
	}

	c := shardClient(addr, topo, index)
	c.Timeout = 30 * time.Second
	got, ns, err := c.Sets(ctx, "ids", bobSlice, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recovered, aliceSlice) {
		t.Fatal("client did not recover the shard's slice")
	}
	checkNetStats(t, ns, want.Stats)

	// Wrong shard identity: rejected at the handshake.
	wrong := shardClient(addr, topo, 0)
	if _, _, err := wrong.Sets(ctx, "ids", bobSlice, cfg); !errors.Is(err, ErrServer) || !errors.Is(err, ErrMisrouted) {
		t.Fatalf("misrouted identity: %v", err)
	}
	// Wrong shard count.
	wrong = shardClient(addr, topo, index)
	wrong.ShardCount = topo.NumShards() + 1
	if _, _, err := wrong.Sets(ctx, "ids", bobSlice, cfg); !errors.Is(err, ErrMisrouted) {
		t.Fatalf("misrouted count: %v", err)
	}
	// Stale epoch: same structure, different epoch — the distinct re-resolve
	// signal, not a structural misroute.
	stale := shardClient(addr, mustTopo(t, 2, "s0:1", "s1:2", "s2:3"), index)
	_, _, err = stale.Sets(ctx, "ids", bobSlice, cfg)
	if !errors.Is(err, ErrServer) || !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale epoch not flagged as ErrStaleEpoch: %v", err)
	}
	if errors.Is(err, ErrMisrouted) {
		t.Fatalf("stale epoch also flagged as misrouted: %v", err)
	}
	// This shard's identity matches but another shard's addresses differ: the
	// fingerprint disagrees, so the partitions would too — rejected.
	skewed := mustTopo(t, 3, "s0:1", "s1:2", "elsewhere:9")
	wrong = shardClient(addr, skewed, index)
	if _, _, err := wrong.Sets(ctx, "ids", bobSlice, cfg); !errors.Is(err, ErrMisrouted) || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched topology fingerprint accepted: %v", err)
	}
	// The same topology spelled in a different shard order is the same
	// topology: canonical identity and fingerprint make the handshake
	// order-insensitive.
	reordered := mustTopo(t, 3, "s2:3", "s0:1", "s1:2")
	same := shardClient(addr, reordered, 2) // "s1:2" sits at position 2 now
	same.Timeout = 30 * time.Second
	if _, _, err := same.Sets(ctx, "ids", bobSlice, cfg); err != nil {
		t.Fatalf("reordered-but-identical topology rejected: %v", err)
	}
	// No shard coordinates against a sharded dataset.
	if _, _, err := Dial(addr).Sets(ctx, "ids", bobSlice, cfg); !errors.Is(err, ErrMisrouted) {
		t.Fatalf("shard-less session against sharded dataset: %v", err)
	}
	// Shard coordinates against an unsharded dataset.
	if _, _, err := c.Sets(ctx, "plain", bobSlice, cfg); !errors.Is(err, ErrMisrouted) {
		t.Fatalf("sharded session against unsharded dataset: %v", err)
	}
	// The correctly routed client still works after the rejections.
	if _, _, err := c.Sets(ctx, "ids", bobSlice, cfg); err != nil {
		t.Fatalf("post-rejection routed session: %v", err)
	}
}

// TestShardedSetsOfSetsHostServesOwnedSlice: child sets partition by
// identity hash, and a shard session is byte-par with an in-process run over
// the two owned slices.
func TestShardedSetsOfSetsHostServesOwnedSlice(t *testing.T) {
	ctx := context.Background()
	topo := mustTopo(t, 1, "a:1", "b:2", "c:3")
	alice, bob := sosPair()
	for index := 0; index < topo.NumShards(); index++ {
		_, addr, _ := startServer(t, func(s *Server) {
			if err := s.HostSetsOfSetsShard("docs", alice, topo, index); err != nil {
				t.Fatal(err)
			}
		})
		aliceSlice := topo.OwnedSets(index, alice)
		bobSlice := topo.OwnedSets(index, bob)
		cfg := sosr.Config{Seed: uint64(21 + index), Protocol: sosr.ProtocolCascade, KnownDiff: 24}
		want, err := sosr.ReconcileSetsOfSets(aliceSlice, bobSlice, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := shardClient(addr, topo, index)
		c.Timeout = 60 * time.Second
		got, ns, err := c.SetsOfSets(ctx, "docs", bobSlice, cfg)
		if err != nil {
			t.Fatalf("shard %d: %v", index, err)
		}
		if !reflect.DeepEqual(got.Recovered, want.Recovered) {
			t.Fatalf("shard %d: recovered slice diverges from in-process run", index)
		}
		checkNetStats(t, ns, want.Stats)
	}
}

// TestReplicatedShardHostsIdenticalSlice: every replica of one shard hosts
// the identical slice under the same canonical identity, and a client
// carrying that shard's coordinates reconciles byte-identically against
// either replica.
func TestReplicatedShardHostsIdenticalSlice(t *testing.T) {
	ctx := context.Background()
	topo, err := shardmap.NewTopology(1, [][]string{
		{"r0a:1", "r0b:1"},
		{"r1a:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := setPair()
	const index = 0
	var addrs []string
	for range topo.Replicas(index) {
		_, addr, _ := startServer(t, func(s *Server) {
			if err := s.HostSetsShard("ids", alice, topo, index); err != nil {
				t.Fatal(err)
			}
		})
		addrs = append(addrs, addr)
	}
	bobSlice := setutil.Canonical(topo.OwnedElems(index, bob))
	cfg := sosr.SetConfig{Seed: 17, KnownDiff: 16}
	var results []*sosr.SetResult
	var stats []*NetStats
	for _, addr := range addrs {
		c := shardClient(addr, topo, index)
		c.Timeout = 30 * time.Second
		got, ns, err := c.Sets(ctx, "ids", bobSlice, cfg)
		if err != nil {
			t.Fatalf("replica %s: %v", addr, err)
		}
		results = append(results, got)
		stats = append(stats, ns)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("replicas of one shard recovered different slices")
	}
	if stats[0].Protocol.TotalBytes != stats[1].Protocol.TotalBytes {
		t.Fatalf("replicas moved different protocol bytes: %d vs %d",
			stats[0].Protocol.TotalBytes, stats[1].Protocol.TotalBytes)
	}
}

// TestShardedUpdatesRouteToOwner: one logical mutation broadcast to every
// shard server applies exactly the owned slice on each — non-owners stay
// untouched (no version bump, caches warm).
func TestShardedUpdatesRouteToOwner(t *testing.T) {
	ctx := context.Background()
	topo := mustTopo(t, 1, "u0:1", "u1:2")
	alice, bob := setPair()
	type shardSrv struct {
		srv  *Server
		addr string
	}
	shards := make([]shardSrv, topo.NumShards())
	for i := range shards {
		i := i
		srv, addr, _ := startServer(t, func(s *Server) {
			if err := s.HostSetsShard("ids", alice, topo, i); err != nil {
				t.Fatal(err)
			}
		})
		shards[i] = shardSrv{srv, addr}
	}
	// Pick one added element per shard so the broadcast touches both, plus a
	// removal owned by whichever shard owns alice[0].
	adds := []uint64{}
	for x := uint64(50_000_000); len(adds) < topo.NumShards(); x++ {
		if topo.Owner(x) == len(adds) {
			adds = append(adds, x)
		}
	}
	removes := []uint64{alice[0]}
	logical := setutil.ApplyDiff(alice, adds, removes)
	for i, sh := range shards {
		if err := sh.srv.UpdateSets("ids", adds, removes); err != nil {
			t.Fatalf("shard %d broadcast update: %v", i, err)
		}
		if v, err := sh.srv.DatasetVersion("ids"); err != nil || v != 1 {
			t.Fatalf("shard %d version %d (%v), want 1", i, v, err)
		}
		// A second broadcast owning nothing on this shard is a no-op.
		other := adds[(i+1)%topo.NumShards()]
		if err := sh.srv.UpdateSets("ids", nil, []uint64{other + 2}); err != nil {
			t.Fatalf("shard %d no-op update: %v", i, err)
		}
		if topo.Owner(other+2) != i {
			if v, _ := sh.srv.DatasetVersion("ids"); v != 1 {
				t.Fatalf("shard %d: update owning nothing bumped version to %d", i, v)
			}
		}
	}
	// Every shard now serves its slice of the updated logical set.
	for i, sh := range shards {
		c := shardClient(sh.addr, topo, i)
		c.Timeout = 30 * time.Second
		bobSlice := setutil.Canonical(topo.OwnedElems(i, bob))
		got, _, err := c.Sets(ctx, "ids", bobSlice, sosr.SetConfig{Seed: 31, KnownDiff: 24})
		if err != nil {
			t.Fatalf("shard %d session: %v", i, err)
		}
		if want := setutil.Canonical(topo.OwnedElems(i, logical)); !reflect.DeepEqual(got.Recovered, want) {
			t.Fatalf("shard %d serves a stale or misfiltered slice", i)
		}
	}
}

// TestShardedMultisetHostAndUpdate: multiset occurrences follow their element
// value to one shard, and broadcast multiset updates route the same way.
func TestShardedMultisetHostAndUpdate(t *testing.T) {
	ctx := context.Background()
	topo := mustTopo(t, 1, "m0:1", "m1:2")
	alice := []uint64{1, 1, 1, 2, 5, 5, 9, 9, 9, 9, 40}
	bob := []uint64{1, 1, 2, 2, 5, 9, 9, 9, 9, 40, 41}
	const index = 0
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostMultisetShard("bag", alice, topo, index); err != nil {
			t.Fatal(err)
		}
	})
	owned := func(ms []uint64) []uint64 { return topo.OwnedElems(index, ms) }
	wantRec, _, err := sosr.ReconcileMultisets(owned(alice), owned(bob), 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := shardClient(addr, topo, index)
	c.Timeout = 30 * time.Second
	got, _, err := c.Multiset(ctx, "bag", owned(bob), 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantRec) {
		t.Fatalf("sharded multiset recovered %v, want %v", got, wantRec)
	}
	// Broadcast an update touching both shards; this shard applies only its
	// owned occurrences.
	adds := []uint64{}
	for x := uint64(100); len(adds) < 2; x++ {
		if topo.Owner(x) == len(adds) {
			adds = append(adds, x)
		}
	}
	// A malformed broadcast is rejected on every shard, even one that does
	// not own the bad element — no partial application across the fleet.
	if err := srv.UpdateMultisets("bag", []uint64{adds[0], 1 << 50}, nil); err == nil {
		t.Fatal("out-of-range element in a broadcast accepted by a non-owning shard")
	}
	if v, _ := srv.DatasetVersion("bag"); v != 0 {
		t.Fatalf("rejected broadcast bumped version to %d", v)
	}
	if err := srv.UpdateMultisets("bag", adds, nil); err != nil {
		t.Fatal(err)
	}
	updated := append(owned(alice), topo.OwnedElems(index, adds)...)
	wantRec2, _, err := sosr.ReconcileMultisets(updated, owned(bob), 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := c.Multiset(ctx, "bag", owned(bob), 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, wantRec2) {
		t.Fatalf("post-update sharded multiset recovered %v, want %v", got2, wantRec2)
	}
}

// TestHostShardsOnlyPartitionedKinds: Host partitions a dataset through its
// kind's canon, and a kind without one has no rule for which shard holds what.
// Hosting a graph or a forest with a topology must be refused — not hosted
// whole on every shard, each of which would then serve the entire dataset to a
// fan-out that merges the slices — while the same call without one hosts it,
// and a kind the table does partition is hosted either way.
func TestHostShardsOnlyPartitionedKinds(t *testing.T) {
	topo := mustTopo(t, 3, "s0:1", "s1:2", "s2:3")
	g, f := sosr.RandomGraph(30, 0.3, 5), sosr.RandomForest(30, 0.2, 5)
	for _, row := range []struct {
		rec       store.Record
		shardable bool
	}{
		{store.Record{Kind: store.KindSet, Elems: seqSet(0, 90)}, true},
		{store.Record{Kind: store.KindMultiset, Elems: append(seqSet(0, 90), 7, 7)}, true},
		{store.Record{Kind: store.KindSetsOfSets, Parents: [][]uint64{{1, 2}, {3}, {4, 5, 6}}}, true},
		{store.Record{Kind: store.KindGraph, N: g.N, Edges: g.Edges}, false},
		{store.Record{Kind: store.KindForest, Parent: f.Parent}, false},
	} {
		srv := NewServer()
		sharded, whole := row.rec, row.rec
		sharded.Name, whole.Name = "sharded", "whole"
		err := srv.Host(&sharded, topo, 1)
		switch {
		case row.shardable && err != nil:
			t.Errorf("%s: hosting shard 1 of 3: %v", row.rec.Kind, err)
		case !row.shardable && !errors.Is(err, ErrUnsupported):
			t.Errorf("%s: hosting with a topology: got %v, want ErrUnsupported", row.rec.Kind, err)
		case !row.shardable && len(srv.Datasets()) != 0:
			t.Errorf("%s: the refused record is hosted: %+v", row.rec.Kind, srv.Datasets())
		}
		if err := srv.Host(&whole, nil, 0); err != nil {
			t.Errorf("%s: hosting unsharded: %v", row.rec.Kind, err)
		}
	}
}
