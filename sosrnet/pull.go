package sosrnet

import (
	"context"
	"fmt"

	"sosr"
)

// PullSetsOfSets reconciles this server's hosted sets-of-sets dataset against
// the same dataset on a peer server: the local dataset converges to the
// peer's. The server plays Bob through the client's sketch path, with its own
// encoding cache holding the sketches — repeated pulls (anti-entropy sweeps,
// replica catch-up) between updates subtract the resident aggregate instead
// of re-encoding the hosted data every round.
//
// On success the recovered difference is applied through UpdateSetsOfSets;
// the next pull patches the sketch by the children the update changed. Sharded datasets pull shard-to-shard: the peer must host the
// same shard slice under the same topology (identity, epoch, fingerprint).
func (s *Server) PullSetsOfSets(ctx context.Context, name, peerAddr string, cfg sosr.Config) (*sosr.Result, *NetStats, error) {
	ds, err := s.lookup(name, KindSetsOfSets)
	if err != nil {
		return nil, nil, err
	}
	cl := s.pullClient(ds, peerAddr)
	defer cl.Close() // one pull, one connection: nothing to keep
	res, ns, err := cl.SetsOfSets(ctx, name, ds.view(name).sos, cfg)
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

// pullClient is the client a pull of ds runs on. Its sessions get the deadline
// this server gives the ones it serves, so a stalled peer ends a pull even
// when the caller's context has no deadline.
func (s *Server) pullClient(ds *dataset, peerAddr string) *Client {
	cl := &Client{
		Addr: peerAddr, Timeout: s.sessionTimeout(), MaxFrame: s.MaxFrame,
		Obs: s.Registry(),
		// Bob sketches live in the server's encoding cache (none when that is
		// disabled), under the budget the Alice payloads share.
		CacheBytes: -1, cache: s.encCache(),
	}
	if ds.shard != nil {
		cl.ShardID = ds.shard.topo.ShardIDHash(ds.shard.index)
		cl.ShardCount = ds.shard.topo.NumShards()
		cl.ShardEpoch = ds.shard.topo.Epoch()
		cl.ShardFingerprint = ds.shard.topo.Fingerprint()
	}
	return cl
}
