package shardmap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"sosr/internal/hashing"
)

// Topology describes a replicated sharded deployment: every logical shard is
// served by k ≥ 1 replica instances holding identical slices, and the whole
// arrangement carries a monotonic epoch so every party can tell a stale view
// from the current one at the handshake.
//
// A shard is its position: shard i of an n-shard topology owns the keys the
// positional map over n names assigns to i (see Positional), and its identity
// hash and the topology fingerprint are that map's. Ownership, shard identity
// and fingerprint are therefore functions of the shard count alone, and the
// replica addresses do one job, routing: a respelled, replaced or re-ported
// replica leaves its shard's identity and keys where they were, while the same
// addresses listed in another shard order are a different deployment.
//
// A Topology is immutable and safe for concurrent use. Replacing a
// deployment's topology means building a new value with a higher epoch;
// servers hosting the old epoch then reject new-epoch clients (and vice
// versa) deterministically instead of partitioning keys differently on the
// two sides.
type Topology struct {
	epoch  uint64
	shards [][]string // per shard, its replica addresses in the caller's order
	m      *Map       // HRW ownership over the positional shard names
}

// replicaSalt seeds the per-replica rendezvous weights used for failover and
// hedging order (independent of the ownership weights).
const replicaSalt uint64 = 0x9e71f00d5ca1ab1e

// NewTopology builds a topology at the given epoch. shards[i] lists shard i's
// replica addresses; every shard needs at least one replica and all addresses
// must be non-empty and globally distinct.
func NewTopology(epoch uint64, shards [][]string) (*Topology, error) {
	if len(shards) == 0 {
		return nil, errors.New("shardmap: topology has no shards")
	}
	t := &Topology{epoch: epoch, shards: make([][]string, len(shards))}
	seen := make(map[string]struct{})
	for i, reps := range shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shardmap: shard %d has no replicas", i)
		}
		t.shards[i] = append([]string(nil), reps...)
		for j, addr := range reps {
			if addr == "" {
				return nil, fmt.Errorf("shardmap: shard %d replica %d has an empty address", i, j)
			}
			if _, dup := seen[addr]; dup {
				return nil, fmt.Errorf("shardmap: duplicate address %q", addr)
			}
			seen[addr] = struct{}{}
		}
	}
	m, err := Positional(len(shards))
	if err != nil {
		return nil, err
	}
	t.m = m
	return t, nil
}

// SingleReplica builds a one-replica-per-shard topology over addrs, the
// unreplicated layout earlier deployments configured as a flat address list.
func SingleReplica(epoch uint64, addrs []string) (*Topology, error) {
	shards := make([][]string, len(addrs))
	for i, a := range addrs {
		shards[i] = []string{a}
	}
	return NewTopology(epoch, shards)
}

// Epoch returns the topology's monotonic epoch.
func (t *Topology) Epoch() uint64 { return t.epoch }

// NumShards returns the shard count.
func (t *Topology) NumShards() int { return len(t.shards) }

// Replicas returns shard i's replica addresses in the caller's original
// order. The returned slice is shared; do not mutate it.
func (t *Topology) Replicas(i int) []string { return t.shards[i] }

// ShardIDHash returns the hash of shard i's positional identity — the compact
// form carried in the session hello.
func (t *Topology) ShardIDHash(i int) uint64 { return t.m.ShardIDHash(i) }

// Fingerprint digests the positional shard names, so two topologies of equal
// shard count fingerprint equal whatever their addresses. The epoch is
// deliberately excluded so an epoch mismatch and a structural mismatch are
// distinguishable rejections.
func (t *Topology) Fingerprint() uint64 { return t.m.Fingerprint() }

// SplitElems partitions elements by shard ownership (see Map.SplitElems).
func (t *Topology) SplitElems(xs []uint64) [][]uint64 { return t.m.SplitElems(xs) }

// SplitSets partitions child sets by identity ownership (see Map.SplitSets).
func (t *Topology) SplitSets(parent [][]uint64) [][][]uint64 { return t.m.SplitSets(parent) }

// OwnedElems filters xs down to the elements shard i owns.
func (t *Topology) OwnedElems(i int, xs []uint64) []uint64 { return t.m.OwnedElems(i, xs) }

// OwnedSets filters parent down to the child sets shard i owns.
func (t *Topology) OwnedSets(i int, parent [][]uint64) [][]uint64 { return t.m.OwnedSets(i, parent) }

// ReplicaOrder returns the indices of shard i's replicas in rendezvous order
// for the given key: the highest-weight replica first. Distinct keys (session
// seeds) spread primaries across replicas, so steady-state load balances
// while any one key's order stays deterministic on every client.
//
// A one-replica shard's order is shared and allocates nothing; callers must
// not mutate the returned slice.
func (t *Topology) ReplicaOrder(i int, key uint64) []int {
	reps := t.shards[i]
	if len(reps) == 1 {
		return onlyReplica
	}
	order := make([]int, len(reps))
	w := make([]uint64, len(reps))
	for j, addr := range reps {
		order[j] = j
		w[j] = hashing.HashWord(hashing.HashBytes(replicaSalt, []byte(addr)), key)
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(w[b], w[a]), cmp.Compare(reps[a], reps[b]))
	})
	return order
}

// onlyReplica is the replica order of every one-replica shard.
var onlyReplica = []int{0}
