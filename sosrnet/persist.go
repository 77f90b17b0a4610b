package sosrnet

import (
	"errors"
	"fmt"

	"sosr/internal/core"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/shardmap"
	"sosr/internal/store"
)

// Crash-safe persistence: the in-memory dataset map stays the serving source
// of truth; a configured store is a write-through journal behind it. Hosting
// a dataset commits an atomic snapshot; every Update* appends one WAL entry
// (fsynced before the in-memory commit, under the dataset lock, so WAL order
// is version order and an acknowledged mutation is durable); the store asks
// for compaction when a WAL grows past its threshold and the server folds it
// into a fresh snapshot inline. Recover replays snapshot + WAL through the
// same staging logic the live path uses, so a restarted server reaches the
// byte-identical state — including dataset versions, which keep enccache
// keys truthful across the restart, and live incremental digests, restored
// from their serialized linear state instead of O(|parent|) rebuilds.

// UseStore attaches a persistence backend. Set it before hosting datasets or
// serving; datasets hosted earlier are not retroactively persisted.
func (s *Server) UseStore(st store.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = st
}

// SetReady flips the server's readiness (served on /readyz). Daemons mark
// not-ready before recovery and during shutdown drain.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports readiness; a fresh Server is ready.
func (s *Server) Ready() bool { return !s.notReady.Load() }

// RecoveryStats summarizes one Recover call.
type RecoveryStats struct {
	Datasets  int // datasets restored
	Replayed  int // WAL entries applied on top of snapshots
	Truncated int // datasets whose damaged WAL tail was cut off
	Digests   int // live incremental digests restored
}

// Recover loads every persisted dataset from the attached store, replays its
// WAL suffix, and hosts the result. Call before Serve on an empty server.
// Datasets whose snapshot is unreadable are skipped by the store with a
// warning; an update that fails to re-apply (possible only if a corrupted
// entry slipped past the WAL checksums) stops that dataset's replay at the
// last good state, loudly. After a replay or a tail truncation the dataset
// is re-snapshotted, so the next boot starts clean.
func (s *Server) Recover() (RecoveryStats, error) {
	var rs RecoveryStats
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		return rs, errors.New("sosrnet: no store attached")
	}
	recovered, err := st.Load()
	if err != nil {
		return rs, err
	}
	for _, rec := range recovered {
		ds, err := datasetFromRecord(rec.Record)
		if err != nil {
			s.logger().Warn("recovery: skipping dataset", "dataset", rec.Record.Name, "err", err.Error())
			continue
		}
		// Digests first: they were serialized at the snapshot's version, and
		// replaying the WAL suffix afterwards patches them through the same
		// commit path live updates use, keeping digest and contents in step.
		rs.Digests += s.restoreDigests(ds, rec.Record)
		replayed, err := s.replay(rec.Record.Name, ds, rec.Updates)
		rs.Replayed += replayed
		if err != nil {
			s.logger().Warn("recovery: replay stopped early",
				"dataset", rec.Record.Name, "applied", replayed, "of", len(rec.Updates), "err", err.Error())
		}
		if rec.TruncatedWAL {
			rs.Truncated++
		}
		s.mu.Lock()
		if _, dup := s.datasets[rec.Record.Name]; dup {
			s.mu.Unlock()
			return rs, fmt.Errorf("sosrnet: recovered dataset %q already hosted", rec.Record.Name)
		}
		s.datasets[rec.Record.Name] = ds
		s.mu.Unlock()
		// Fold the replayed suffix (or the truncation, or a failed tail) into
		// a fresh snapshot so the WAL restarts empty.
		if replayed > 0 || rec.TruncatedWAL || err != nil {
			ds.mu.Lock()
			snapErr := s.saveLocked(rec.Record.Name, ds)
			ds.mu.Unlock()
			if snapErr != nil {
				return rs, fmt.Errorf("sosrnet: compacting %q after recovery: %w", rec.Record.Name, snapErr)
			}
		}
		rs.Datasets++
	}
	return rs, nil
}

// replay applies recovered WAL entries through the mutation skeleton the live
// path uses (Server.apply). Returns how many applied.
func (s *Server) replay(name string, ds *dataset, ups []*store.Update) (int, error) {
	for i, up := range ups {
		if err := s.apply(name, ds, up, true, nil); err != nil {
			return i, err
		}
	}
	return len(ups), nil
}

// restoreDigests rebuilds the persisted live incremental digests. A blob
// that fails validation is skipped with a warning — the digest rebuilds
// lazily on its next use, nothing is lost but a warm start.
func (s *Server) restoreDigests(ds *dataset, rec *store.Record) int {
	if ds.k.commit == nil {
		return 0 // a kind with no commit step maintains no digests
	}
	n := 0
	for _, d := range rec.Digests {
		p, err := core.Params{S: d.S, H: d.H, U: d.U}.Normalized()
		if err == nil {
			var dig *core.IncrementalDigest
			dig, err = core.RestoreIncrementalDigest(
				core.DigestKind(d.Kind), hashing.NewCoins(d.Seed), p, d.D, d.DHat, d.Data)
			if err == nil {
				ds.mu.Lock()
				ds.admitLive(liveKey{
					kind: core.DigestKind(d.Kind), seed: d.Seed,
					s: p.S, h: p.H, u: p.U, d: d.D, dHat: d.DHat,
				}, dig)
				ds.mu.Unlock()
				n++
				continue
			}
		}
		s.logger().Warn("recovery: discarding persisted digest",
			"dataset", rec.Name, "err", err.Error())
	}
	return n
}

// SnapshotDataset persists a fresh snapshot of one dataset, compacting its
// WAL. No-op without a store.
func (s *Server) SnapshotDataset(name string) error {
	ds, err := s.byName(name)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return s.saveLocked(name, ds)
}

// saveLocked writes the dataset's current state to the attached store as a
// fresh snapshot, which compacts its WAL. Caller holds ds.mu. No-op without a
// store.
func (s *Server) saveLocked(name string, ds *dataset) error {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.SaveSnapshot(recordLocked(name, ds))
}

// SnapshotAll persists every hosted dataset (shutdown and SIGTERM path).
// The first error aborts the sweep.
func (s *Server) SnapshotAll() error {
	s.mu.Lock()
	st := s.store
	names := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		names = append(names, name)
	}
	s.mu.Unlock()
	if st == nil {
		return nil
	}
	for _, name := range names {
		if err := s.SnapshotDataset(name); err != nil && !errors.Is(err, ErrUnknownDataset) {
			return err
		}
	}
	return nil
}

// DropDataset unhosts a dataset and removes its persisted state. In-flight
// sessions keep their copy-on-write view; new sessions get unknown_dataset.
func (s *Server) DropDataset(name string) error {
	s.mu.Lock()
	st := s.store
	_, ok := s.datasets[name]
	delete(s.datasets, name)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	if st == nil {
		return nil
	}
	return st.Drop(name)
}

// walAppend journals one staged mutation before it commits. Caller holds the
// dataset's lock (so WAL order is version order) and must abort the commit on error.
// Returns with the entry durable; if the store asks for compaction the
// caller snapshots right after its commit via compactLocked. sp, when
// non-nil, parents a "store/append" span covering the durable write.
func (s *Server) walAppend(name string, up *store.Update, sp *obs.Span) (compact bool, err error) {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		return false, nil
	}
	wsp := sp.Child("store/append")
	wsp.SetStr("dataset", name)
	wsp.SetInt("version", int64(up.Version))
	compact, err = st.AppendUpdate(name, up)
	wsp.Fail(err)
	wsp.Finish()
	if err != nil {
		return false, fmt.Errorf("sosrnet: journaling update for %q: %w", name, err)
	}
	return compact, nil
}

// compactLocked folds the dataset's WAL into a fresh snapshot. Caller holds
// ds.mu; a failure is logged, not returned — the mutation it trails already
// committed durably, compaction is an optimization.
func (s *Server) compactLocked(name string, ds *dataset) {
	if err := s.saveLocked(name, ds); err != nil {
		s.logger().Warn("WAL compaction failed", "dataset", name, "err", err.Error())
	}
}

// recordLocked renders the dataset's current state as a store record,
// including the serialized live digests. Caller holds ds.mu.
func recordLocked(name string, ds *dataset) *store.Record {
	rec := &store.Record{Name: name, Kind: string(ds.k.kind), Version: ds.version}
	ds.k.encode(&ds.contents, rec)
	if ds.shard != nil {
		topo := ds.shard.topo
		shards := make([][]string, topo.NumShards())
		for i := range shards {
			shards[i] = topo.Replicas(i)
		}
		rec.Shard = &store.ShardBinding{Index: ds.shard.index, Epoch: topo.Epoch(), Shards: shards}
	}
	for _, lk := range ds.liveOrder {
		dig, ok := ds.live[lk]
		if !ok {
			continue
		}
		blob, err := dig.MarshalBinary()
		if err != nil {
			continue
		}
		rec.Digests = append(rec.Digests, store.DigestState{
			Kind: byte(lk.kind), Seed: lk.seed,
			S: lk.s, H: lk.h, U: lk.u, D: lk.d, DHat: lk.dHat,
			Data: blob,
		})
	}
	return rec
}

// datasetFromRecord rebuilds an in-memory dataset from its snapshot record.
// Contents were canonicalized before they were persisted, so they are decoded
// as they are.
func datasetFromRecord(rec *store.Record) (*dataset, error) {
	k := kindOf(Kind(rec.Kind))
	if k == nil {
		return nil, fmt.Errorf("unknown kind %q", rec.Kind)
	}
	data, err := k.decode(rec)
	if err != nil {
		return nil, err
	}
	ds := &dataset{k: k, version: rec.Version, contents: data}
	if rec.Shard != nil {
		topo, err := shardmap.NewTopology(rec.Shard.Epoch, rec.Shard.Shards)
		if err != nil {
			return nil, fmt.Errorf("rebuilding topology: %w", err)
		}
		if ds.shard, err = checkShard(topo, rec.Shard.Index); err != nil {
			return nil, err
		}
	}
	return ds, nil
}
