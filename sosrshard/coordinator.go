package sosrshard

import (
	"errors"
	"fmt"
	"sync"

	"sosr/internal/obs"
	"sosr/internal/setutil"
	"sosr/internal/shardmap"
	"sosr/sosrnet"
)

// Coordinator hosts logical datasets across the replica servers of one
// replicated deployment and routes live mutations to every replica of the
// owning shard(s). It drives plain sosrnet.Server instances — typically one
// per process behind the addresses the topology is built over; in tests or a
// single-process deployment they can all live in one process on separate
// listeners.
//
// Hosting hands every server the full logical dataset; each keeps exactly
// the slice its shard owns (server-side ownership filtering is idempotent,
// so coordinator-split and broadcast hosting agree), and all replicas of a
// shard host the identical slice. Updates are split by ownership and sent to
// every replica of the shards that own a piece. Mutations across servers are
// not atomic: on error, servers earlier in (shard, replica) order may have
// applied their slice while later ones have not — re-issue the mutation
// (updates are idempotent per shard only if re-applied exactly, so prefer
// fixing the input and retrying the failed shard).
type Coordinator struct {
	// Obs, when set before the first mutation, counts routed updates per
	// shard (sosr_shard_updates_total). Nil disables instrumentation.
	Obs *obs.Registry

	topo    *shardmap.Topology
	servers [][]*sosrnet.Server
	obsOnce sync.Once
	updates *obs.CounterVec
}

// NewCoordinator pairs a topology with its servers: servers[i][j] hosts
// replica j of shard i, listening on topo.Replicas(i)[j].
func NewCoordinator(topo *shardmap.Topology, servers [][]*sosrnet.Server) (*Coordinator, error) {
	if topo == nil {
		return nil, errors.New("sosrshard: nil topology")
	}
	if len(servers) != topo.NumShards() {
		return nil, fmt.Errorf("sosrshard: %d server groups for %d shards", len(servers), topo.NumShards())
	}
	cp := make([][]*sosrnet.Server, len(servers))
	for i, reps := range servers {
		if len(reps) != len(topo.Replicas(i)) {
			return nil, fmt.Errorf("sosrshard: shard %d has %d servers for %d replicas", i, len(reps), len(topo.Replicas(i)))
		}
		for j, srv := range reps {
			if srv == nil {
				return nil, fmt.Errorf("sosrshard: nil server for shard %d replica %d", i, j)
			}
		}
		cp[i] = append([]*sosrnet.Server(nil), reps...)
	}
	return &Coordinator{topo: topo, servers: cp}, nil
}

// Topology exposes the coordinator's topology (shared; read-only).
func (co *Coordinator) Topology() *shardmap.Topology { return co.topo }

// Server returns the server hosting replica `replica` of shard `shard`.
func (co *Coordinator) Server(shard, replica int) *sosrnet.Server {
	return co.servers[shard][replica]
}

// eachServer runs fn on every replica server of every shard, in (shard,
// replica) order, and annotates the first error with where it happened.
// touched, when non-nil, narrows the sweep to the shards owning a part of a
// routed mutation — the others keep their versions and caches — and each of
// those counts as one routed update.
func (co *Coordinator) eachServer(touched func(i int) bool, fn func(i int, srv *sosrnet.Server) error) error {
	for i, reps := range co.servers {
		if touched != nil && !touched(i) {
			continue
		}
		for j, srv := range reps {
			if err := fn(i, srv); err != nil {
				return fmt.Errorf("sosrshard: shard %d replica %d (%s): %w",
					i, j, co.topo.Replicas(i)[j], err)
			}
		}
		if touched != nil {
			co.countUpdate(i)
		}
	}
	return nil
}

// route sends each owning shard its part of a mutation split by ownership.
func route[P any](co *Coordinator, add, remove [][]P, apply func(srv *sosrnet.Server, add, remove []P) error) error {
	return co.eachServer(
		func(i int) bool { return len(add[i])+len(remove[i]) > 0 },
		func(i int, srv *sosrnet.Server) error { return apply(srv, add[i], remove[i]) })
}

// HostSets hosts a logical set dataset: every replica server keeps its
// shard's owned slice under the same name.
func (co *Coordinator) HostSets(name string, elems []uint64) error {
	return co.eachServer(nil, func(i int, srv *sosrnet.Server) error {
		return srv.HostSetsShard(name, elems, co.topo, i)
	})
}

// HostMultiset hosts a logical multiset dataset; occurrences follow their
// element value to one shard.
func (co *Coordinator) HostMultiset(name string, elems []uint64) error {
	return co.eachServer(nil, func(i int, srv *sosrnet.Server) error {
		return srv.HostMultisetShard(name, elems, co.topo, i)
	})
}

// HostSetsOfSets hosts a logical sets-of-sets dataset; child sets follow
// their canonical identity hash to one shard.
func (co *Coordinator) HostSetsOfSets(name string, parent [][]uint64) error {
	return co.eachServer(nil, func(i int, srv *sosrnet.Server) error {
		return srv.HostSetsOfSetsShard(name, parent, co.topo, i)
	})
}

// UpdateSets routes a logical set mutation to every replica of the owning
// shards.
func (co *Coordinator) UpdateSets(name string, add, remove []uint64) error {
	return route(co, co.topo.SplitElems(add), co.topo.SplitElems(remove),
		func(srv *sosrnet.Server, add, remove []uint64) error { return srv.UpdateSets(name, add, remove) })
}

// UpdateMultisets routes a logical multiset mutation (add/remove
// occurrences) to every replica of the owning shards.
func (co *Coordinator) UpdateMultisets(name string, add, remove []uint64) error {
	return route(co, co.topo.SplitElems(add), co.topo.SplitElems(remove),
		func(srv *sosrnet.Server, add, remove []uint64) error { return srv.UpdateMultisets(name, add, remove) })
}

// UpdateSetsOfSets routes a logical sets-of-sets mutation to every replica
// of the shards owning the touched child sets.
func (co *Coordinator) UpdateSetsOfSets(name string, add, remove [][]uint64) error {
	return route(co, co.topo.SplitSets(setutil.CanonicalSets(add)), co.topo.SplitSets(setutil.CanonicalSets(remove)),
		func(srv *sosrnet.Server, add, remove [][]uint64) error {
			return srv.UpdateSetsOfSets(name, add, remove)
		})
}
