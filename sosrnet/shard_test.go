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
		if err := s.Host(&store.Record{Name: "ids", Kind: store.KindSet, Elems: alice}, topo, index); err != nil {
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
	// Another shard's address differs: addresses only route, so the shard
	// count and this position are all that identify the slice — accepted.
	skewed := shardClient(addr, mustTopo(t, 3, "s0:1", "s1:2", "elsewhere:9"), index)
	skewed.Timeout = 30 * time.Second
	if _, _, err := skewed.Sets(ctx, "ids", bobSlice, cfg); err != nil {
		t.Fatalf("a topology differing in another shard's address rejected: %v", err)
	}
	// The same addresses in another shard order are another deployment: the
	// client that finds "s1:2" at position 2 asks it for position 2's slice.
	reordered := shardClient(addr, mustTopo(t, 3, "s2:3", "s0:1", "s1:2"), 2)
	if _, _, err := reordered.Sets(ctx, "ids", bobSlice, cfg); !errors.Is(err, ErrMisrouted) {
		t.Fatalf("reordered topology: %v, want ErrMisrouted", err)
	}
	// A fingerprint of another shard list is refused even at this position.
	forged := shardClient(addr, topo, index)
	forged.ShardFingerprint++
	if _, _, err := forged.Sets(ctx, "ids", bobSlice, cfg); !errors.Is(err, ErrMisrouted) || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched topology fingerprint: %v", err)
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
