package shardmap

import (
	"reflect"
	"testing"
)

func mustTopology(t *testing.T, epoch uint64, shards [][]string) *Topology {
	t.Helper()
	topo, err := NewTopology(epoch, shards)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyValidation(t *testing.T) {
	cases := [][][]string{
		nil,
		{{}},
		{{""}},
		{{"a:1"}, {"a:1"}}, // duplicate across shards
		{{"a:1", "a:1"}},   // duplicate within a shard
	}
	for i, shards := range cases {
		if _, err := NewTopology(1, shards); err == nil {
			t.Errorf("case %d: invalid topology %v accepted", i, shards)
		}
	}
	if _, err := NewTopology(0, [][]string{{"a:1"}}); err != nil {
		t.Errorf("epoch 0 rejected: %v", err)
	}
}

// baseShards and sameCount: topologies of three shards that differ only in
// their addresses — replicas permuted within a shard, respelled, or replaced
// (with another replica count).
var (
	baseShards = [][]string{{"a:1", "b:1"}, {"c:1", "d:1"}, {"e:1"}}
	sameCount  = map[string][][]string{
		"permuted":  {{"b:1", "a:1"}, {"d:1", "c:1"}, {"e:1"}},
		"respelled": {{"localhost:1", "b:1"}, {"c:1", "d:1"}, {"127.0.0.1:1"}},
		"replaced":  {{"f:9"}, {"g:9", "h:9", "i:9"}, {"j:9"}},
	}
)

func testKeys() []uint64 {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return keys
}

// TestTopologyCanonicalFingerprint: a shard is its position, so topologies of
// equal shard count share the fingerprint and every shard identity hash
// whatever their addresses. The epoch stays out of the fingerprint; another
// shard count changes it.
func TestTopologyCanonicalFingerprint(t *testing.T) {
	base := mustTopology(t, 3, baseShards)
	for name, shards := range sameCount {
		for _, epoch := range []uint64{3, 4} {
			other := mustTopology(t, epoch, shards)
			if other.Fingerprint() != base.Fingerprint() {
				t.Fatalf("%s at epoch %d: fingerprint moved", name, epoch)
			}
			for i := 0; i < 3; i++ {
				if other.ShardIDHash(i) != base.ShardIDHash(i) {
					t.Fatalf("%s: shard %d identity moved", name, i)
				}
			}
		}
	}
	two := mustTopology(t, 3, [][]string{{"a:1"}, {"c:1"}})
	if two.Fingerprint() == base.Fingerprint() {
		t.Fatal("another shard count shares the fingerprint")
	}
}

// TestTopologyOwnershipOrderInvariant: topologies of equal shard count assign
// every key to the same position whatever their addresses.
func TestTopologyOwnershipOrderInvariant(t *testing.T) {
	keys := testKeys()
	want := mustTopology(t, 1, baseShards).SplitElems(keys)
	for name, shards := range sameCount {
		if got := mustTopology(t, 1, shards).SplitElems(keys); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: keys moved between shards", name)
		}
	}
}

// TestSingleReplicaMatchesFlatMap: the unreplicated topology owns keys exactly
// as the positional map over its shard count does.
func TestSingleReplicaMatchesFlatMap(t *testing.T) {
	topo, err := SingleReplica(1, []string{"h1:7075", "h2:7075", "h3:7075"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Positional(3)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys()
	if !reflect.DeepEqual(topo.SplitElems(keys), m.SplitElems(keys)) {
		t.Fatal("single-replica topology owns keys other than positionally")
	}
}

// TestReplicaOrder: deterministic, a permutation, and key-dependent (distinct
// keys spread primaries over replicas).
func TestReplicaOrder(t *testing.T) {
	topo := mustTopology(t, 1, [][]string{{"a:1", "b:1", "c:1"}})
	seenPrimary := map[int]bool{}
	for key := uint64(0); key < 64; key++ {
		order := topo.ReplicaOrder(0, key)
		if len(order) != 3 {
			t.Fatalf("order %v not a permutation", order)
		}
		seen := map[int]bool{}
		for _, j := range order {
			seen[j] = true
		}
		if len(seen) != 3 {
			t.Fatalf("order %v repeats a replica", order)
		}
		if !reflect.DeepEqual(order, topo.ReplicaOrder(0, key)) {
			t.Fatal("replica order not deterministic")
		}
		seenPrimary[order[0]] = true
	}
	if len(seenPrimary) != 3 {
		t.Fatalf("64 keys used only primaries %v — load not spreading", seenPrimary)
	}
}
