package sosrnet

import (
	"fmt"
	"slices"
	"time"

	"sosr/internal/core"
	"sosr/internal/enccache"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
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

// cachedMsg memoizes a seed+bound-keyed payload whose builder cannot fail
// (set IBLTs, charpoly evaluations, multiround round 1). Builder runs — the
// cache misses that actually encode — are observed into the encode stage
// histogram and get an "encode" span, so both reflect real work, not
// replayed bytes; the session trace tallies the lookup either way.
func (s *Server) cachedMsg(view dsView, proto string, seed uint64, d int, tr *sessTrace, build func() []byte) []byte {
	built := false
	timed := func() []byte {
		built = true
		sp := tr.child("encode")
		sp.SetStr("proto", proto)
		sp.SetInt("d", int64(d))
		t0 := time.Now()
		body := build()
		s.observeEncode(t0)
		sp.Finish()
		return body
	}
	var body []byte
	if cache := s.encCache(); cache == nil {
		body = timed()
	} else {
		body, _ = cache.GetOrCompute(enccache.Key{
			Dataset: view.name, Version: view.version, Proto: proto, Seed: seed, D: d,
		}, func() ([]byte, error) { return timed(), nil })
	}
	tr.cacheEvent(!built)
	return body
}

// cachedFrames memoizes a composite (multi-frame) payload whose builder may
// fail (graph and forest Alice sides, which emit signature + edge/meta frames
// from one encode pass). extra pins builder inputs with no dedicated key
// field. Builder runs are observed into the encode stage histogram.
func (s *Server) cachedFrames(view dsView, proto string, seed uint64, d int, extra string, tr *sessTrace, build func() ([][]byte, error)) ([][]byte, error) {
	built := false
	timed := func() ([][]byte, error) {
		built = true
		sp := tr.child("encode")
		sp.SetStr("proto", proto)
		sp.SetInt("d", int64(d))
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
		frames, err = cache.GetOrComputeFrames(enccache.Key{
			Dataset: view.name, Version: view.version, Proto: proto, Seed: seed, D: d, Extra: extra,
		}, timed)
	}
	tr.cacheEvent(!built)
	return frames, err
}

// sosProtoName maps a digest kind to its cache-key protocol name.
func sosProtoName(kind core.DigestKind) string {
	switch kind {
	case core.DigestNaive:
		return "naive"
	case core.DigestNested:
		return "nested"
	case core.DigestCascade:
		return "cascade"
	}
	return fmt.Sprintf("kind-%d", kind)
}

// sosAliceMsg returns the one-round sets-of-sets payload for the session's
// snapshot, memoized and incrementally maintained.
func (s *Server) sosAliceMsg(view dsView, kind core.DigestKind, coins hashing.Coins, p core.Params, d, dHat int, tr *sessTrace) ([]byte, error) {
	proto := sosProtoName(kind)
	built := false
	timed := func(run func() ([]byte, error)) ([]byte, error) {
		built = true
		sp := tr.child("encode")
		sp.SetStr("proto", proto)
		sp.SetInt("d", int64(d))
		sp.SetInt("dhat", int64(dHat))
		t0 := time.Now()
		body, err := run()
		s.observeEncode(t0)
		sp.Fail(err)
		sp.Finish()
		return body, err
	}
	var body []byte
	var err error
	if cache := s.encCache(); cache == nil {
		body, err = timed(func() ([]byte, error) {
			return core.AliceMsg(kind, coins, view.sos, p, d, dHat)
		})
	} else {
		k := enccache.Key{
			Dataset: view.name, Version: view.version, Proto: proto,
			Seed: coins.Master(), S: p.S, H: p.H, U: p.U, D: d, DHat: dHat,
		}
		body, err = cache.GetOrCompute(k, func() ([]byte, error) {
			return timed(func() ([]byte, error) {
				return view.ds.oneRoundBody(kind, coins, view, p, d, dHat)
			})
		})
	}
	tr.cacheEvent(!built)
	return body, err
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
// exactly its slice. A mutation that owns nothing here is a no-op (no
// version bump, caches stay warm).
func (s *Server) UpdateSetsOfSets(name string, add, remove [][]uint64) error {
	return s.updateSetsOfSets(name, add, remove, nil)
}

// updateSetsOfSets is UpdateSetsOfSets with a trace span: the admin endpoint
// passes its request span so the WAL append lands in the request's trace.
func (s *Server) updateSetsOfSets(name string, add, remove [][]uint64, sp *obs.Span) error {
	ds, err := s.lookup(name, KindSetsOfSets)
	if err != nil {
		return err
	}
	addC, removeC := setutil.CanonicalSets(add), setutil.CanonicalSets(remove)
	if ds.shard != nil {
		addC = ds.shard.topo.OwnedSets(ds.shard.index, addC)
		removeC = ds.shard.topo.OwnedSets(ds.shard.index, removeC)
		if len(addC) == 0 && len(removeC) == 0 {
			return nil
		}
	}

	ds.mu.Lock()
	defer ds.mu.Unlock()
	next, err := ds.stageSOS(addC, removeC)
	if err != nil {
		return fmt.Errorf("sosrnet: %w in %q", err, name)
	}
	compact, err := s.walAppend(name, ds, &store.Update{
		Version: ds.version + 1, AddSets: addC, RemoveSets: removeC,
	}, sp)
	if err != nil {
		return err
	}
	ds.commitSOS(next, addC, removeC)
	if compact {
		s.compactLocked(name, ds)
	}
	return nil
}

// stageSOS validates a canonical, shard-filtered sets-of-sets mutation
// against the hosted parent and builds the next parent slice, touching no
// state. Caller holds d.mu. Only the mutation is hash-indexed, so the pass
// over a large hosted parent hashes each child once and allocates
// O(|update|), not O(|sos|).
func (d *dataset) stageSOS(addC, removeC [][]uint64) ([][]uint64, error) {
	const memberSeed = 0xd15717c7 // same salt Validate uses for dedup
	rmByHash := make(map[uint64][]int, len(removeC))
	for i, cs := range removeC {
		h := setutil.Hash(memberSeed, cs)
		rmByHash[h] = append(rmByHash[h], i)
	}
	// dupAdd is the first add equal to an earlier add or to a child that
	// stays hosted.
	dupAdd := len(addC)
	addByHash := make(map[uint64][]int, len(addC))
	for i, cs := range addC {
		h := setutil.Hash(memberSeed, cs)
		for _, j := range addByHash[h] {
			if setutil.Equal(cs, addC[j]) {
				dupAdd = min(dupAdd, i)
			}
		}
		addByHash[h] = append(addByHash[h], i)
	}
	taken := make([]bool, len(removeC))
	next := make([][]uint64, 0, len(d.sos)+len(addC))
outer:
	for _, cs := range d.sos {
		h := setutil.Hash(memberSeed, cs)
		for _, i := range rmByHash[h] {
			if !taken[i] && setutil.Equal(cs, removeC[i]) {
				taken[i] = true
				continue outer
			}
		}
		for _, i := range addByHash[h] {
			if setutil.Equal(cs, addC[i]) {
				dupAdd = min(dupAdd, i)
			}
		}
		next = append(next, cs)
	}
	for i, ok := range taken {
		if !ok {
			return nil, fmt.Errorf("remove[%d] is not hosted", i)
		}
	}
	if dupAdd < len(addC) {
		return nil, fmt.Errorf("add[%d] already hosted", dupAdd)
	}
	return append(next, addC...), nil
}

// commitSOS installs a staged sets-of-sets mutation: infallible by
// construction (stageSOS validated it), so it can run after the WAL append
// without ever leaving the journal ahead of a failed commit. Caller holds
// d.mu.
func (d *dataset) commitSOS(next [][]uint64, addC, removeC [][]uint64) {
	// Patch every live digest; a patch failure (which staging should
	// preclude) drops that digest rather than serving corrupt bytes.
	for lk, dig := range d.live {
		ok := true
		for _, cs := range removeC {
			if dig.Remove(cs) != nil {
				ok = false
				break
			}
		}
		if ok {
			for _, cs := range addC {
				if dig.Add(cs) != nil {
					ok = false
					break
				}
			}
		}
		if !ok {
			d.dropLive(lk)
		}
	}
	d.sos = next
	d.version++
}

// UpdateSets applies a live mutation to a hosted set dataset (KindSet):
// elements in add are inserted, elements in remove are dropped (removing an
// absent element is a no-op, matching set semantics). The version bump
// retires all cached payloads for the old contents. On a sharded dataset only
// the elements this shard owns are applied (broadcast one logical update to
// every shard server; each takes its slice), and an update owning nothing
// here is a no-op.
func (s *Server) UpdateSets(name string, add, remove []uint64) error {
	return s.updateSets(name, add, remove, nil)
}

// updateSets is UpdateSets with a trace span (see updateSetsOfSets).
func (s *Server) updateSets(name string, add, remove []uint64, sp *obs.Span) error {
	ds, err := s.lookup(name, KindSet)
	if err != nil {
		return err
	}
	if err := setrecon.CheckRange(add); err != nil {
		return err
	}
	if ds.shard != nil {
		add = ds.shard.topo.OwnedElems(ds.shard.index, add)
		remove = ds.shard.topo.OwnedElems(ds.shard.index, remove)
		if len(add) == 0 && len(remove) == 0 {
			return nil
		}
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	compact, err := s.walAppend(name, ds, &store.Update{
		Version: ds.version + 1, Add: add, Remove: remove,
	}, sp)
	if err != nil {
		return err
	}
	ds.set = ds.stageSet(add, remove)
	ds.version++
	if compact {
		s.compactLocked(name, ds)
	}
	return nil
}

// stageSet computes the next canonical set contents. Caller holds d.mu.
func (d *dataset) stageSet(add, remove []uint64) []uint64 {
	return setutil.ApplyDiff(d.set, add, remove)
}

// UpdateMultisets applies a live mutation to a hosted multiset dataset
// (KindMultiset): each occurrence in add raises its element's multiplicity by
// one, each occurrence in remove lowers it by one. Removing an occurrence the
// dataset does not hold — or pushing a multiplicity past the §3.4 packing
// limit — rejects the whole mutation atomically. The version bump retires all
// cached payloads for the old contents; the next session re-packs and serves
// the fresh multiset. On a sharded dataset ownership follows the element
// value (matching HostMultisetShard), broadcast updates apply per-shard
// slices, and an update owning nothing here is a no-op.
func (s *Server) UpdateMultisets(name string, add, remove []uint64) error {
	return s.updateMultisets(name, add, remove, nil)
}

// updateMultisets is UpdateMultisets with a trace span (see updateSetsOfSets).
func (s *Server) updateMultisets(name string, add, remove []uint64, sp *obs.Span) error {
	ds, err := s.lookup(name, KindMultiset)
	if err != nil {
		return err
	}
	// Range-check before ownership filtering (mirroring UpdateSets), so a
	// malformed broadcast mutation is rejected identically on every shard
	// instead of applying on the shards that happen not to own the bad
	// element.
	for _, x := range add {
		if x > setrecon.MaxMultisetElement {
			return fmt.Errorf("%w: element %d", setrecon.ErrMultisetRange, x)
		}
	}
	if ds.shard != nil {
		add = ds.shard.topo.OwnedElems(ds.shard.index, add)
		remove = ds.shard.topo.OwnedElems(ds.shard.index, remove)
	}
	if len(add) == 0 && len(remove) == 0 {
		return nil
	}

	ds.mu.Lock()
	defer ds.mu.Unlock()
	packed, err := ds.stageMultiset(add, remove)
	if err != nil {
		return fmt.Errorf("sosrnet: %w in %q", err, name)
	}
	compact, err := s.walAppend(name, ds, &store.Update{
		Version: ds.version + 1, Add: add, Remove: remove,
	}, sp)
	if err != nil {
		return err
	}
	ds.set = packed
	ds.version++
	if compact {
		s.compactLocked(name, ds)
	}
	return nil
}

// stageMultiset validates a shard-filtered multiset mutation against the
// hosted packing and returns the next packed contents, touching no state.
// Caller holds d.mu. Only the mutation is indexed: hosted words it does not
// name pass through untouched.
func (d *dataset) stageMultiset(add, remove []uint64) ([]uint64, error) {
	delta := make(map[uint64]int64, len(add)+len(remove))
	for _, x := range remove {
		delta[x]--
	}
	for _, x := range add {
		delta[x]++
	}
	// restage folds x's staged change into its hosted multiplicity k and
	// appends what remains of it to packed.
	restage := func(packed []uint64, x, k uint64) ([]uint64, error) {
		next := int64(k) + delta[x]
		switch {
		case next < 0:
			return nil, fmt.Errorf("remove of element %d exceeds its multiplicity %d", x, k)
		case next > int64(setrecon.MaxMultiplicity):
			return nil, fmt.Errorf("%w: element %d would reach multiplicity %d", setrecon.ErrMultisetRange, x, next)
		case next > 0:
			packed = append(packed, setrecon.PackCounted(x, uint64(next)))
		}
		return packed, nil
	}
	packed := make([]uint64, 0, len(d.set)+len(delta))
	var err error
	for _, w := range d.set {
		x, k := setrecon.UnpackCounted(w)
		if _, staged := delta[x]; !staged {
			packed = append(packed, w)
			continue
		}
		if packed, err = restage(packed, x, k); err != nil {
			return nil, err
		}
		delete(delta, x)
	}
	for x := range delta { // elements not hosted yet
		if packed, err = restage(packed, x, 0); err != nil {
			return nil, err
		}
	}
	slices.Sort(packed)
	return packed, nil
}

// DatasetVersion reports the current version of a hosted dataset (0 until
// the first update).
func (s *Server) DatasetVersion(name string) (uint64, error) {
	s.mu.Lock()
	ds, ok := s.datasets[name]
	s.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.version, nil
}
