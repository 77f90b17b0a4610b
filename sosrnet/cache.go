package sosrnet

import (
	"fmt"
	"time"

	"sosr/internal/core"
	"sosr/internal/enccache"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/store"
)

// Server-side encoding memoization and live dataset updates.
//
// Every Alice payload the server sends is a pure function of (dataset
// contents, protocol kind, derived seed, instance params, bounds) — the
// public-coin model of §2 guarantees it. The server therefore keys payloads
// by exactly that tuple plus the dataset version and replays cached bytes to
// every session that asks again. Mutating a dataset bumps its version, so a
// stale payload can never be served; for the one-round sets-of-sets kinds
// the mutation additionally patches live core.IncrementalDigest builders in
// O(update), so the first session after an update snapshots the new payload
// without a full re-encode (IBLT linearity makes the patched bytes identical
// to a from-scratch build).

// liveKey identifies one incrementally maintained one-round digest.
type liveKey struct {
	kind    core.DigestKind
	seed    uint64 // derived coins master
	s, h    int
	u       uint64
	d, dHat int
}

// maxLiveDigests bounds the per-dataset incremental builders. Each retains
// its parent tables plus O(|parent|) bookkeeping maps, so admission is
// deliberately conservative: a key must be requested twice (see wanted)
// before it earns a builder, and evicted builders simply fall back to a full
// re-encode on next use.
const maxLiveDigests = 8

// maxWantedKeys bounds the second-use tracker; when full it resets, which
// only delays admission by one more request.
const maxWantedKeys = 256

// encCache lazily constructs the shared payload cache, honoring CacheBytes
// at first use (fields are set between NewServer and Serve).
func (s *Server) encCache() *enccache.Cache {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cacheOff {
		return nil
	}
	if s.cache == nil {
		if s.CacheBytes < 0 {
			s.cacheOff = true
			return nil
		}
		s.cache = enccache.New(s.CacheBytes)
	}
	return s.cache
}

// CacheStats reports the encoding cache counters (zero value when caching is
// disabled or no session has run yet).
func (s *Server) CacheStats() enccache.Stats {
	s.mu.Lock()
	c := s.cache
	s.mu.Unlock()
	if c == nil {
		return enccache.Stats{}
	}
	return c.Stats()
}

// memo returns Alice's frames for one attempt of the session in rec: from the
// payload cache when the key is resident (the session's view supplies its
// dataset and version), from build otherwise. Builder runs — the cache misses
// that actually encode — are observed into the encode stage histogram and get
// an "encode" span, so both reflect real work, not replayed bytes; the session
// trace tallies the lookup either way. The frames are shared: callers must not
// write to them.
func (s *Server) memo(rec *sessionRecord, k enccache.Key, build func() ([][]byte, error)) ([][]byte, error) {
	k.Dataset, k.Version = rec.view.name, rec.view.version
	built := false
	timed := func() ([][]byte, error) {
		built = true
		sp := rec.tr.child("encode")
		sp.SetStr("proto", k.Proto)
		sp.SetInt("d", int64(k.D))
		if k.DHat != 0 {
			sp.SetInt("dhat", int64(k.DHat))
		}
		t0 := time.Now()
		frames, err := build()
		s.observeEncode(t0)
		sp.Fail(err)
		sp.Finish()
		return frames, err
	}
	var frames [][]byte
	var err error
	if cache := s.encCache(); cache == nil {
		frames, err = timed()
	} else {
		frames, err = cache.GetOrComputeFrames(k, timed)
	}
	rec.tr.cacheEvent(!built)
	return frames, err
}

// oneRoundBody builds the payload for a cache miss. When the session's
// snapshot is still the dataset's current version it routes through a live
// IncrementalDigest (creating one on first need), so subsequent mutations
// patch this encoding instead of invalidating it; snapshots of older
// versions, and instances the incremental builder rejects (e.g. duplicate
// child sets), fall back to a plain one-shot encode of the snapshot. The
// encode itself always runs against the immutable snapshot WITHOUT holding
// d.mu — distinct keys (e.g. per-client seeds) must encode concurrently and
// must not block other sessions' view() — so only the live-digest lookup,
// admission, and snapshot marshal take the lock.
func (d *dataset) oneRoundBody(kind core.DigestKind, coins hashing.Coins, view dsView, p core.Params, dd, dHat int) ([]byte, error) {
	lk := liveKey{kind: kind, seed: coins.Master(), s: p.S, h: p.H, u: p.U, d: dd, dHat: dHat}
	d.mu.Lock()
	if dig, ok := d.live[lk]; ok && d.version == view.version {
		d.touchLive(lk)
		body := dig.SnapshotMsg()
		d.mu.Unlock()
		return body, nil
	}
	current := d.version == view.version
	promote := false
	if current {
		// Admit a live digest only on the second request for this key (the
		// payload cache absorbs same-version repeats, so a second miss means
		// the key survived an update or an eviction — a genuinely hot one).
		// One-shot client seeds therefore never pin an O(|parent|) builder.
		if _, seen := d.wanted[lk]; seen {
			promote = true
			delete(d.wanted, lk)
		} else {
			if d.wanted == nil || len(d.wanted) >= maxWantedKeys {
				d.wanted = make(map[liveKey]struct{}, 16)
			}
			d.wanted[lk] = struct{}{}
		}
	}
	d.mu.Unlock()

	if !current || !promote {
		return core.AliceMsg(kind, coins, view.sos, p, dd, dHat)
	}
	dig, err := core.NewIncrementalDigest(kind, coins, p, dd, dHat)
	if err == nil {
		for _, cs := range view.sos {
			if err = dig.Add(cs); err != nil {
				break
			}
		}
	}
	if err != nil {
		return core.AliceMsg(kind, coins, view.sos, p, dd, dHat)
	}
	d.mu.Lock()
	if d.version == view.version {
		// Still current: future updates will patch this digest. A concurrent
		// update while we built means the digest is already stale — drop it
		// (its snapshot below is still correct for the session's version).
		d.admitLive(lk, dig)
	}
	body := dig.SnapshotMsg()
	d.mu.Unlock()
	return body, nil
}

// admitLive registers a live digest, evicting the least recently used one
// past the bound. Caller holds d.mu.
func (d *dataset) admitLive(lk liveKey, dig *core.IncrementalDigest) {
	if d.live == nil {
		d.live = make(map[liveKey]*core.IncrementalDigest)
	}
	if _, ok := d.live[lk]; !ok {
		d.liveOrder = append(d.liveOrder, lk)
	}
	d.live[lk] = dig
	for len(d.liveOrder) > maxLiveDigests {
		old := d.liveOrder[0]
		d.liveOrder = d.liveOrder[1:]
		delete(d.live, old)
	}
}

// touchLive moves lk to the most recently used position. Caller holds d.mu.
func (d *dataset) touchLive(lk liveKey) {
	for i, k := range d.liveOrder {
		if k == lk {
			copy(d.liveOrder[i:], d.liveOrder[i+1:])
			d.liveOrder[len(d.liveOrder)-1] = lk
			return
		}
	}
}

// dropLive removes a live digest that failed to patch. Caller holds d.mu.
func (d *dataset) dropLive(lk liveKey) {
	delete(d.live, lk)
	for i, k := range d.liveOrder {
		if k == lk {
			d.liveOrder = append(d.liveOrder[:i], d.liveOrder[i+1:]...)
			return
		}
	}
}

// ---- live dataset updates ----

// UpdateSetsOfSets applies a live mutation to a hosted sets-of-sets dataset:
// every child set in remove must currently be hosted, every child set in add
// must not be (parents are sets). Child sets may be passed unsorted. The
// dataset version is bumped, so cached payloads for the old contents are
// never served again, and every live one-round digest is patched in
// O(|add| + |remove|) child encodes rather than re-encoding the parent.
//
// On a sharded dataset the mutation routes through the shard map first: only
// child sets this shard owns are applied (and validated), so one logical
// update can be broadcast verbatim to every shard server and each applies
// exactly its slice. A mutation that owns nothing here — like an empty one —
// is a no-op (no version bump, nothing journaled, caches stay warm).
func (s *Server) UpdateSetsOfSets(name string, add, remove [][]uint64) error {
	return s.update(name, KindSetsOfSets, &store.Update{AddSets: add, RemoveSets: remove}, nil)
}

// UpdateSets applies a live mutation to a hosted set dataset (KindSet):
// elements in add are inserted, elements in remove are dropped (removing an
// absent element is a no-op, matching set semantics). The version bump
// retires all cached payloads for the old contents. On a sharded dataset only
// the elements this shard owns are applied (broadcast one logical update to
// every shard server; each takes its slice), and an update owning nothing
// here — like an empty one — is a no-op.
func (s *Server) UpdateSets(name string, add, remove []uint64) error {
	return s.update(name, KindSet, &store.Update{Add: add, Remove: remove}, nil)
}

// UpdateMultisets applies a live mutation to a hosted multiset dataset
// (KindMultiset): each occurrence in add raises its element's multiplicity by
// one, each occurrence in remove lowers it by one. Removing an occurrence the
// dataset does not hold — or pushing a multiplicity past the §3.4 packing
// limit — rejects the whole mutation atomically. The version bump retires all
// cached payloads for the old contents; the next session re-packs and serves
// the fresh multiset. On a sharded dataset ownership follows the element
// value (matching HostMultisetShard), broadcast updates apply per-shard
// slices, and an update owning nothing here — like an empty one — is a no-op.
func (s *Server) UpdateMultisets(name string, add, remove []uint64) error {
	return s.update(name, KindMultiset, &store.Update{Add: add, Remove: remove}, nil)
}

// update is the live-mutation path under every Update* and the admin endpoint
// (whose request span sp parents the journal append). up is the caller's to
// give away: it is rewritten in place and journaled.
func (s *Server) update(name string, kind Kind, up *store.Update, sp *obs.Span) error {
	ds, err := s.lookup(name, kind)
	if err != nil {
		return err
	}
	return s.apply(name, ds, up, false, sp)
}

// apply is the one mutation skeleton. The dataset's kind range-checks the
// mutation and narrows it to the canonical slice this shard owns; if nothing
// is left nothing happens — no version bump, nothing journaled, caches stay
// warm. What is left goes stage → journal → commit under the dataset lock, so
// WAL order is version order, nothing is journaled that staging refused, and
// nothing commits that is not durable. Recovery replays the journal through
// here too: an entry was prepared before it was appended and carries the
// version it produced, so replay skips the preparation and the append.
func (s *Server) apply(name string, ds *dataset, up *store.Update, replay bool, sp *obs.Span) error {
	k := ds.k
	if k.stage == nil {
		return fmt.Errorf("%w: kind %q takes no updates", ErrUnsupported, k.kind)
	}
	if !replay {
		if err := k.prepare(up, ds.shard); err != nil {
			return err
		}
		if len(up.Add)+len(up.Remove)+len(up.AddSets)+len(up.RemoveSets) == 0 {
			return nil
		}
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if !replay {
		up.Version = ds.version + 1
	} else if up.Version != ds.version+1 {
		return fmt.Errorf("update version %d after %d", up.Version, ds.version)
	}
	next, err := k.stage(&ds.contents, up)
	if err != nil {
		return fmt.Errorf("sosrnet: %w in %q", err, name)
	}
	compact := false
	if !replay {
		if compact, err = s.walAppend(name, up, sp); err != nil {
			return err
		}
	}
	if k.commit != nil {
		k.commit(ds, up)
	}
	ds.contents, ds.version = next, up.Version
	if compact {
		s.compactLocked(name, ds)
	}
	return nil
}

// DatasetVersion reports the current version of a hosted dataset (0 until
// the first update).
func (s *Server) DatasetVersion(name string) (uint64, error) {
	ds, err := s.byName(name)
	if err != nil {
		return 0, err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.version, nil
}
