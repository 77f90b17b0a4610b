package sosrnet

import (
	"context"
	"fmt"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/enccache"
	"sosr/internal/hashing"
)

// PullSetsOfSets reconciles this server's hosted sets-of-sets dataset against
// the same dataset on a peer server: the local dataset converges to the
// peer's. The server plays Bob, and its Bob sketches are keyed on the
// dataset's copy-on-write version in the shared encoding cache — repeated
// pulls (anti-entropy sweeps, replica catch-up) between updates subtract a
// memoized aggregate instead of re-encoding the hosted data every round.
//
// On success the recovered difference is applied through UpdateSetsOfSets,
// which bumps the dataset version; the next pull builds (and caches) one
// fresh sketch. Sharded datasets pull shard-to-shard: the peer must host the
// same shard slice under the same topology (identity, epoch, fingerprint).
func (s *Server) PullSetsOfSets(ctx context.Context, name, peerAddr string, cfg sosr.Config) (*sosr.Result, *NetStats, error) {
	ds, err := s.lookup(name, KindSetsOfSets)
	if err != nil {
		return nil, nil, err
	}
	view := ds.view(name)
	cl := &Client{
		Addr: peerAddr, Timeout: s.SessionTimeout, MaxFrame: s.MaxFrame,
		Obs: s.Registry(),
		// The client's own fingerprint-keyed cache is bypassed: version-keyed
		// sketches in the server's encoding cache invalidate by mutation
		// instead of aging out by LRU pressure.
		CacheBytes: -1,
	}
	defer cl.Close() // one pull, one connection: nothing to keep
	if ds.shard != nil {
		cl.ShardID = ds.shard.topo.ShardIDHash(ds.shard.index)
		cl.ShardCount = ds.shard.topo.NumShards()
		cl.ShardEpoch = ds.shard.topo.Epoch()
		cl.ShardFingerprint = ds.shard.topo.Fingerprint()
	}
	cl.sketchFor = func(kind core.DigestKind, coins hashing.Coins, bob [][]uint64, p core.Params, d, dHat int) (*core.BobSketch, bool) {
		cache := s.encCache()
		if cache == nil {
			return nil, false
		}
		k := enccache.Key{
			Dataset: name, Version: view.version,
			Proto: "bob/" + sosProtoName(kind), Seed: coins.Master(),
			S: p.S, H: p.H, U: p.U, D: d, DHat: dHat,
		}
		v, hit, err := cache.GetOrComputeValue(k, func() (any, int64, error) {
			sk, err := core.NewBobSketch(kind, coins, bob, p, d, dHat)
			if err != nil {
				return nil, 0, err
			}
			return sk, sk.SizeBytes(), nil
		})
		if err != nil {
			return nil, false
		}
		sk, _ := v.(*core.BobSketch)
		return sk, hit
	}
	res, ns, err := cl.SetsOfSets(ctx, name, view.sos, cfg)
	if err != nil {
		return nil, ns, err
	}
	if len(res.Added) > 0 || len(res.Removed) > 0 {
		if err := s.UpdateSetsOfSets(name, res.Added, res.Removed); err != nil {
			return nil, ns, fmt.Errorf("sosrnet: pull reconciled but applying the difference failed (concurrent update?): %w", err)
		}
	}
	return res, ns, nil
}
