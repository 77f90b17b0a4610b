// Package shardmap deterministically assigns reconciliation keys to shards
// with rendezvous (highest-random-weight) hashing. The sets-of-sets protocols
// decompose a parent set into independent child-set reconciliations, so a
// hosted dataset partitions cleanly: every top-level element (for sets and
// multisets) or child-set identity (for sets of sets) is owned by exactly one
// shard, both parties compute the same owner without communication, and each
// shard pair reconciles its slice with the paper's per-shard communication
// bounds intact.
//
// Assignment is a pure function of (shard name, key): the owner of a key is
// the shard whose hashed (name, key) weight is largest. That gives the two
// properties a sharded deployment needs:
//
//   - Stability under reordering: permuting a name list never changes which
//     name owns a key (indices follow the caller's order, the names do not).
//   - Minimal movement: adding or removing one shard from a list of n moves
//     only the ~1/n of keys whose new/old maximum was that shard.
//
// A Topology names its shards by position (Positional), so everything the
// parties must agree on is a function of the shard count alone.
package shardmap

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"sosr/internal/hashing"
)

// childSalt seeds the canonical child-set identity hash. Both parties of a
// sharded reconciliation must derive the same child owner, so the salt is a
// protocol constant, not a configuration knob.
const childSalt uint64 = 0xc41d5e7a551671d5

// Map assigns keys to a fixed list of shards. The zero value is unusable;
// construct with New. A Map is immutable and safe for concurrent use.
type Map struct {
	ids         []string
	seeds       []uint64 // per-shard weight seed, derived from the identity string
	fingerprint uint64   // digest of ids, computed once by New
}

// New builds a map over the given shard names. Names must be non-empty and
// distinct; order is preserved (Owner's indices follow it) but does not affect
// which name owns a key.
func New(ids []string) (*Map, error) {
	if len(ids) == 0 {
		return nil, errors.New("shardmap: no shards")
	}
	m := &Map{
		ids:   append([]string(nil), ids...),
		seeds: make([]uint64, len(ids)),
	}
	seen := make(map[string]struct{}, len(ids))
	for i, id := range m.ids {
		if id == "" {
			return nil, fmt.Errorf("shardmap: shard %d has an empty identity", i)
		}
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("shardmap: duplicate shard identity %q", id)
		}
		seen[id] = struct{}{}
		m.seeds[i] = hashing.HashBytes(weightSalt, []byte(id))
	}
	m.fingerprint = hashing.HashBytes(fingerprintSalt, []byte(strings.Join(m.ids, "\x00")))
	return m, nil
}

// Positional builds the map over n shards named by their positions, "0" to
// "n-1": the ownership and shard identities of every n-shard topology,
// whatever addresses serve it.
func Positional(n int) (*Map, error) {
	names := make([]string, n)
	for i := range names {
		names[i] = strconv.Itoa(i)
	}
	return New(names)
}

// weightSalt seeds the per-shard identity hash feeding the HRW weights.
const weightSalt uint64 = 0x73a4d3a95eedf00d

// fingerprintSalt seeds the shard-list digest.
const fingerprintSalt uint64 = 0xf19e4b21d15c0de5

// shardIDSalt seeds the shard-identity hash carried in the hello.
const shardIDSalt uint64 = 0x70b07091c4a10e57

// Fingerprint returns an order-sensitive digest of the name list: two maps
// fingerprint equal iff they partition keys identically. It is computed once,
// when the map is built, so a handshake that checks it allocates nothing.
func (m *Map) Fingerprint() uint64 { return m.fingerprint }

// ShardIDHash returns the hash of shard index's name — the compact form of
// its identity carried in the session hello.
func (m *Map) ShardIDHash(index int) uint64 {
	return hashing.HashBytes(shardIDSalt, []byte(m.ids[index]))
}

// N returns the shard count.
func (m *Map) N() int { return len(m.ids) }

// Owner returns the index of the shard owning key: the shard with the
// highest hashed (name, key) weight, ties broken by the lexicographically
// smaller name so assignment stays a pure function of the name set.
func (m *Map) Owner(key uint64) int {
	best := 0
	bestW := hashing.HashWord(m.seeds[0], key)
	for i := 1; i < len(m.seeds); i++ {
		w := hashing.HashWord(m.seeds[i], key)
		if w > bestW || (w == bestW && m.ids[i] < m.ids[best]) {
			best, bestW = i, w
		}
	}
	return best
}

// ChildKey maps a canonical child set to its shard-assignment key: the
// order-invariant set hash under a fixed protocol salt. Both parties of a
// sharded sets-of-sets reconciliation derive the same key for the same child
// set without communication.
func ChildKey(cs []uint64) uint64 {
	return hashing.HashUint64s(childSalt, cs)
}

// OwnerOfSet returns the index of the shard owning a canonical child set.
func (m *Map) OwnerOfSet(cs []uint64) int { return m.Owner(ChildKey(cs)) }

// SplitElems partitions elements by ownership: out[i] holds, in input order,
// the elements shard i owns. Used to split sets and multisets (a multiset
// occurrence follows its element value, so all copies land on one shard).
func (m *Map) SplitElems(xs []uint64) [][]uint64 {
	return split(len(m.ids), xs, m.Owner)
}

// split partitions xs among n shards by owner: out[i] holds, in input order,
// the xs shard i owns (nil when it owns none). It finds every owner once and
// counts each shard's share, then carves the parts out of one backing slice,
// each capped at its share so that appending to one part after the split
// never writes into the next.
func split[T any](n int, xs []T, owner func(T) int) [][]T {
	scratch := make([]int, len(xs)+n)
	owners, shares := scratch[:len(xs)], scratch[len(xs):]
	for j, x := range xs {
		owners[j] = owner(x)
		shares[owners[j]]++
	}
	backing := make([]T, len(xs))
	out := make([][]T, n)
	start := 0
	for i, share := range shares {
		if share > 0 {
			out[i] = backing[start : start : start+share]
		}
		start += share
	}
	for j, o := range owners {
		out[o] = append(out[o], xs[j])
	}
	return out
}

// OwnedElems filters xs down to the elements shard index owns, preserving
// input order.
func (m *Map) OwnedElems(index int, xs []uint64) []uint64 {
	var out []uint64
	for _, x := range xs {
		if m.Owner(x) == index {
			out = append(out, x)
		}
	}
	return out
}

// SplitSets partitions child sets by child-identity ownership: out[i] holds,
// in input order, the child sets shard i owns.
func (m *Map) SplitSets(parent [][]uint64) [][][]uint64 {
	return split(len(m.ids), parent, m.OwnerOfSet)
}

// OwnedSets filters parent down to the child sets shard index owns,
// preserving input order.
func (m *Map) OwnedSets(index int, parent [][]uint64) [][]uint64 {
	var out [][]uint64
	for _, cs := range parent {
		if m.OwnerOfSet(cs) == index {
			out = append(out, cs)
		}
	}
	return out
}
