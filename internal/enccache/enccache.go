// Package enccache memoizes Alice-side protocol encodings for servers that
// reconcile the same hosted dataset against many clients. An encoding is a
// pure function of (dataset contents, protocol kind, shared seed, instance
// parameters, difference bounds) — the public-coin model guarantees it — so
// a server may compute it once and replay the exact bytes to every session
// that asks with the same key.
//
// The cache is a byte-bounded LRU with request coalescing: concurrent
// lookups of one missing key run the builder once and share its result, so a
// thundering herd against a cold hot-spot encodes a single time. Dataset
// mutations are handled by versioning, not explicit invalidation: the
// dataset's current version is part of every key, so stale entries simply
// stop being referenced and age out of the LRU.
//
// Sessions that draw fresh coins ask for every key once, so an entry built
// for a key nothing held waits in a probation segment, capped at an eighth
// of the budget or its newest entry. The next lookup of its key moves it
// into the main LRU, and eviction takes the probation tail before the main
// one: one-shot payloads hold at most an eighth of the budget, or a single
// entry, and give way to each other before an entry asked for twice does.
// Probation remembers the keys it drops, as a 64-bit fingerprint and a size,
// up to a budget's worth of what they held and as many records as an eighth
// of the budget holds at ghostBytes (32) each; a key rebuilt while remembered
// goes straight to main. Keys asked for in turn whose payloads fit in seven
// eighths of the budget and are each at least 7·ghostBytes = 224 bytes
// therefore all hit from their third round on, however far they exceed
// probation's eighth: their records then fit in theirs. A record holds about
// 88 bytes of heap, not 32 (TestGhostHeap), so the ghosts of payloads of a
// few bytes hold about a third of the budget beside it: 22 MiB at
// DefaultMaxBytes.
//
// A miss allocates only what its builder returns. The call that coalesces
// lookups is the one the previous miss finished with, unless a lookup waited
// on that one — a waiter reads the result out of its call after the build, so
// a call a waiter has seen is never reused — and its channel is made only
// when a lookup does wait. The entry that keeps a built value is one the cache
// dropped earlier (an entry evicted, a stale value replaced by an oversized
// one), from a list of at most sixteen, so entries are allocated only until
// the segments are full. On the cold_kinds_tcp benchmark, where every session
// misses both caches, the calls and channels took about 26 objects off the 322
// of an operation and the entries about 12 (seed 1, 2 vCPU, medians of
// 20-second runs).
package enccache

import (
	"fmt"
	"hash/maphash"
	"sync"
)

// Key identifies one exact Alice-side encoding. Seed must already encode any
// per-attempt derivation (replica index, doubling step) — callers pass the
// derived coins' master seed, not the session seed.
//
// The strings come first and the numbers after them: a lookup hashes the
// numbers as one run of memory, which takes a quarter off a hit.
type Key struct {
	// Dataset and Version pin the exact data snapshot that was encoded.
	Dataset string
	// Proto names the payload flavor ("cascade", "nested", "naive",
	// "set-iblt", "charpoly", "mr1", ...).
	Proto string
	// Extra pins any remaining builder inputs that have no dedicated field
	// (e.g. the client-supplied side info a forest plan depends on). Callers
	// must render every such input into this string; two sessions whose
	// payloads could differ must never share a key.
	Extra   string
	Version uint64 // see Dataset
	// Seed is the derived public-coin master for this attempt.
	Seed uint64
	// S, H, U, D, DHat pin the instance shape and difference bounds.
	S, H    int
	U       uint64
	D, DHat int
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits       uint64 // lookups served from memory
	Misses     uint64 // lookups that ran the builder
	Shared     uint64 // lookups that piggybacked on an in-flight build
	Evictions  uint64 // entries pushed out by the byte bound
	Promotions uint64 // lookups that proved a key probation held or dropped
	Entries    int    // resident entries
	Bytes      int64  // resident payload bytes
}

// Cache is a byte-bounded, two-segment LRU of encoded payloads, safe for
// concurrent use.
type Cache struct {
	mu        sync.Mutex
	maxBytes  int64
	main      segment // entries looked up since they were built
	probation segment // entries not looked up since they were built
	// entries holds each resident entry under its key's fingerprint, one
	// key a fingerprint: a slot is 16 bytes, where a Key's is 112, and the
	// map keeps the slots of its largest size.
	entries    map[uint64]*entry
	ghost      ghostRing // keys probation dropped
	seed       maphash.Seed
	inflight   map[Key]*call
	spare      *call  // a finished call no lookup waited on
	free       *entry // dropped entries, linked through next
	nfree      int
	hits       uint64
	misses     uint64
	shared     uint64
	evictions  uint64
	promotions uint64
}

// probationShare is the fraction of the byte budget (1/probationShare) the
// probation segment may hold beyond its newest entry.
const probationShare = 8

// ghostBytes is the data a remembered key keeps: its 16-byte record in the
// ring and the 16 bytes of its fingerprint's map slot. Ghosts whose records
// would keep more than 1/probationShare of the budget at this size are
// forgotten, oldest first. With the slack of the ring, which grows by
// doubling, and of the map, a ghost holds about 88 bytes of heap
// (TestGhostHeap), where one that was a whole entry held about 300: the
// records' eighth of the budget is about 34 % of it in heap.
const ghostBytes = 32

// maxFree bounds the dropped entries kept for later inserts. A miss drops
// about one entry for the one it inserts, but in bursts: a large payload makes
// probation evict many small ones at once. On cold_kinds_tcp, when a ghost
// still held its entry, a bound of 1 kept a fifth of the objects this one
// saves, 8 four fifths, and 32 no more than 16 (seed 1, 2 vCPU).
const maxFree = 16

// value is what a builder produced: a payload of one or more frames, or an
// opaque decoded value (val non-nil, frames nil). Single-frame payloads (sets,
// one-round sos digests), composite payloads (graph sig + edge frames, forest
// sig + meta frames), and decode-side values (Bob sketches) share the same
// byte budget; the shape is part of what the builder produced, not of the
// key.
type value struct {
	frames [][]byte
	val    any
}

// entry is one key linked into a segment's ring. Entries are read and written
// only under the cache's lock — lookups return a copy of the value — so an
// entry the cache drops is reused by a later insert.
type entry struct {
	key Key
	value
	size       int64
	prev, next *entry
	seg        *segment
}

// segment is a ring of entries through a sentinel, most recently used first.
type segment struct {
	root  entry
	n     int
	bytes int64
}

func (s *segment) init() { s.root.prev, s.root.next = &s.root, &s.root }

func (s *segment) pushFront(e *entry) {
	e.seg, e.prev, e.next = s, &s.root, s.root.next
	e.next.prev = e
	s.root.next = e
	s.n++
	s.bytes += e.size
}

func (s *segment) remove(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.seg, e.prev, e.next = nil, nil, nil
	s.n--
	s.bytes -= e.size
}

// back is the least recently used entry; the segment must not be empty.
func (s *segment) back() *entry { return s.root.prev }

// ghost is what probation remembers of a key it dropped: the key's
// fingerprint, and the payload bytes it held (0 once the key is rebuilt).
type ghost struct {
	fp   uint64
	size int64
}

// ghostRing is the dropped keys, oldest first, in a circular buffer that
// grows by doubling. at maps a fingerprint to the sequence number of its
// newest record; a record is numbered first + its distance from head.
type ghostRing struct {
	recs  []ghost
	head  int
	n     int
	first uint64
	bytes int64 // what the remembered keys held
	at    map[uint64]uint64
}

func (r *ghostRing) push(g ghost) {
	if r.n == len(r.recs) {
		grown := make([]ghost, max(2*r.n, 16))
		copy(grown[copy(grown, r.recs[r.head:]):], r.recs[:r.head])
		r.recs, r.head = grown, 0
	}
	r.recs[(r.head+r.n)%len(r.recs)] = g
	r.at[g.fp] = r.first + uint64(r.n)
	r.n++
	r.bytes += g.size
}

// pop forgets the oldest record.
func (r *ghostRing) pop() {
	g := r.recs[r.head]
	if seq, ok := r.at[g.fp]; ok && seq == r.first {
		delete(r.at, g.fp)
	}
	r.bytes -= g.size
	r.head, r.first, r.n = (r.head+1)%len(r.recs), r.first+1, r.n-1
}

// take reports whether a key of fingerprint fp is remembered, and forgets it.
func (r *ghostRing) take(fp uint64) bool {
	seq, ok := r.at[fp]
	if !ok {
		return false
	}
	delete(r.at, fp)
	g := &r.recs[(r.head+int(seq-r.first))%len(r.recs)]
	r.bytes -= g.size
	g.size = 0
	return true
}

// call is one in-flight build other lookups can wait on. The first lookup that
// waits makes done, under the lock, and the result is stored in the call only
// for those that wait; a call nobody waited on is kept for the next miss.
type call struct {
	done chan struct{}
	value
	err error
}

func framesSize(frames [][]byte) int64 {
	var n int64
	for _, f := range frames {
		n += int64(len(f))
	}
	return n
}

// DefaultMaxBytes bounds the cache when New is given a non-positive limit:
// enough for dozens of hot cascade payloads without threatening a small
// server's heap.
const DefaultMaxBytes = 64 << 20

// New returns an empty cache holding at most maxBytes of payload bytes
// (<= 0 selects DefaultMaxBytes).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c := &Cache{
		maxBytes: maxBytes,
		entries:  make(map[uint64]*entry),
		ghost:    ghostRing{at: make(map[uint64]uint64)},
		seed:     maphash.MakeSeed(),
		inflight: make(map[Key]*call),
	}
	c.main.init()
	c.probation.init()
	return c
}

// GetOrCompute returns the single-frame payload for k, running build at most
// once per key across concurrent callers. The returned slice is shared —
// callers must not mutate it. Build errors are returned to every waiter and
// nothing is cached.
func (c *Cache) GetOrCompute(k Key, build func() ([]byte, error)) ([]byte, error) {
	frames, err := c.GetOrComputeFrames(k, func() ([][]byte, error) {
		val, err := build()
		if err != nil {
			return nil, err
		}
		return [][]byte{val}, nil
	})
	if err != nil {
		return nil, err
	}
	if len(frames) != 1 {
		// A key must always map to one payload shape; mixing GetOrCompute and
		// GetOrComputeFrames on the same key is a caller bug.
		return nil, fmt.Errorf("enccache: key %q/%s holds %d frames, want 1", k.Dataset, k.Proto, len(frames))
	}
	return frames[0], nil
}

// GetOrComputeFrames returns the composite (multi-frame) payload for k,
// running build at most once per key across concurrent callers. Builders that
// produce several wire frames from one encode pass (graph signature + edge
// IBLTs, forest signature + metadata) cache the whole ordered frame list
// under one key so a hit replays the entire Alice side of the session. The
// returned slices are shared — callers must not mutate them.
func (c *Cache) GetOrComputeFrames(k Key, build func() ([][]byte, error)) ([][]byte, error) {
	v, _, err := c.getOrCompute(k, nil, func(any) (value, int64, error) {
		frames, err := build()
		return value{frames: frames}, framesSize(frames), err
	})
	return v.frames, err
}

// GetOrComputeValue returns the opaque decoded value for k, running build at
// most once per key across concurrent callers; build also reports the value's
// resident size, which counts against the same LRU byte bound the frame
// payloads share. The returned value is shared — callers must treat it as
// read-only (Bob sketches, the first user, are only ever Subtract sources).
// hit reports whether the lookup was served from memory rather than running
// (or piggybacking on) a build.
//
// A key may name a value that goes stale (the newest sketch of a parent set
// that changes): a resident value that current rejects is not a hit — it is
// handed to build as prev, and what build derives from it replaces it, the
// byte count re-accounted. prev is nil when nothing is resident. A lookup
// that piggybacks on another caller's build receives that caller's value,
// which current may also reject; the caller checks. nil current accepts any
// resident value.
func (c *Cache) GetOrComputeValue(k Key, current func(val any) bool, build func(prev any) (any, int64, error)) (val any, hit bool, err error) {
	v, hit, err := c.getOrCompute(k, current, func(prev any) (value, int64, error) {
		val, size, err := build(prev)
		return value{val: val}, size, err
	})
	return v.val, hit, err
}

// getOrCompute is the shared lookup/coalesce/insert path. build returns a
// value and its size, which getOrCompute stores. Finding a resident entry
// moves it to the front of the main LRU, out of probation if it was there,
// whether or not it is then served. A resident value that fresh (when
// non-nil) rejects counts as a miss and is passed to build as prev (nil when
// nothing is resident), whose result replaces it. fresh is caller code and
// runs without the lock; whatever became resident meanwhile is still
// replaced.
func (c *Cache) getOrCompute(k Key, fresh func(val any) bool, build func(prev any) (value, int64, error)) (v value, hit bool, err error) {
	fp := c.fingerprint(k)
	c.mu.Lock()
	prev := c.entries[fp]
	if prev != nil && prev.key != k {
		prev = nil // another key of the fingerprint: insert replaces it
	}
	if prev != nil {
		v = prev.value
		if prev != c.main.root.next {
			if prev.seg == &c.probation {
				c.promotions++
			}
			prev.seg.remove(prev)
			c.main.pushFront(prev)
		}
	}
	hit = prev != nil
	if hit && fresh != nil {
		c.mu.Unlock()
		hit = fresh(v.val)
		c.mu.Lock()
	}
	if hit {
		c.hits++
		c.mu.Unlock()
		return v, true, nil
	}
	if cl := c.inflight[k]; cl != nil {
		c.shared++
		if cl.done == nil {
			cl.done = make(chan struct{})
		}
		c.mu.Unlock()
		<-cl.done
		return cl.value, false, cl.err
	}
	cl := c.spare
	if cl == nil {
		cl = new(call)
	}
	c.spare = nil
	c.inflight[k] = cl
	c.misses++
	c.mu.Unlock()

	// The builder runs untrusted-ish protocol code; if it panics, the call
	// MUST still be completed and deregistered or every waiter (and every
	// future lookup of this key) would block on done forever — a permanent
	// wedge no connection deadline can sever. The panic itself propagates to
	// the session's recover after cleanup.
	completed := false
	defer func() {
		if !completed {
			c.finish(k, fp, cl, value{}, 0, fmt.Errorf("enccache: builder panicked for %q/%s", k.Dataset, k.Proto))
		}
	}()
	built, size, err := build(v.val)
	completed = true
	if err != nil {
		built = value{}
	}
	c.finish(k, fp, cl, built, size, err)
	return built, false, err
}

// finish completes the build cl ran for k: a value is stored, the key is
// deregistered, and the result goes to the lookups that wait on cl — or, when
// none did, cl is kept for the next miss. No waiter can find cl once it is
// deregistered, so a call is reused only if no lookup ever saw it.
func (c *Cache) finish(k Key, fp uint64, cl *call, built value, size int64, err error) {
	c.mu.Lock()
	delete(c.inflight, k)
	if err == nil {
		c.insert(k, fp, built, size)
	}
	if cl.done != nil {
		cl.value, cl.err = built, err
		close(cl.done)
	} else {
		c.spare = cl
	}
	c.mu.Unlock()
}

// insert stores a built value for k, of fingerprint fp: in place of the key's
// resident entry, in that one's segment; in main, if probation dropped the key
// and still remembers it (or one of its fingerprint: a collision only promotes
// an entry); or else as the newest entry of probation, in place of a resident
// entry of another key of the fingerprint, if any. Probation then
// evicts its own tail down to a 1/probationShare share of the bound or its
// newest entry, and while the bound is exceeded the rest of probation goes
// before the main tail. Oversized payloads (> half the bound) are not
// retained — one giant value must not flush the whole working set — and the
// value they would have replaced goes too: it is stale. Caller holds mu.
func (c *Cache) insert(k Key, fp uint64, v value, size int64) {
	seg := &c.probation
	e := c.entries[fp]
	if e != nil && e.key != k {
		// The cache keeps one key of a fingerprint, the newest.
		e.seg.remove(e)
		delete(c.entries, fp)
		c.recycle(e)
		e = nil
	}
	if e != nil {
		seg = e.seg
		seg.remove(e)
	}
	if size > c.maxBytes/2 {
		if e != nil {
			delete(c.entries, fp)
			c.recycle(e)
		}
		return
	}
	if e == nil {
		if c.ghost.take(fp) {
			// Asked for again within a budget's worth of dropped payloads: a
			// plain LRU would still hold it.
			c.promotions++
			seg = &c.main
		}
		e = c.newEntry(k)
	}
	e.value, e.size = v, size
	c.entries[fp] = e
	seg.pushFront(e)
	for c.probation.n > 1 && c.probation.bytes > c.maxBytes/probationShare {
		c.evict(&c.probation)
	}
	for c.main.bytes+c.probation.bytes > c.maxBytes {
		// No entry exceeds half the bound, so past it with probation down to
		// its newest entry, main is not empty.
		if c.probation.n > 1 {
			c.evict(&c.probation)
		} else {
			c.evict(&c.main)
		}
	}
}

// evict drops the least recently used entry of seg; probation remembers the
// keys it drops. Caller holds mu.
func (c *Cache) evict(seg *segment) {
	e := seg.back()
	seg.remove(e)
	fp := c.fingerprint(e.key)
	delete(c.entries, fp)
	c.evictions++
	if seg == &c.probation {
		c.remember(ghost{fp: fp, size: e.size})
	}
	c.recycle(e)
}

// fingerprint is the 64-bit hash of k that keys its entry and its ghost.
func (c *Cache) fingerprint(k Key) uint64 { return maphash.Comparable(c.seed, k) }

// remember keeps g, a dropped key, forgetting the oldest ghosts while the
// bytes they held would exceed the bound or their records an eighth of it.
// Caller holds mu.
func (c *Cache) remember(g ghost) {
	for c.ghost.n > 0 && (c.ghost.bytes+g.size > c.maxBytes || int64(c.ghost.n+1)*ghostBytes > c.maxBytes/probationShare) {
		c.ghost.pop()
	}
	c.ghost.push(g)
}

// newEntry returns an unlinked entry for k, a dropped one if any is kept.
// Caller holds mu.
func (c *Cache) newEntry(k Key) *entry {
	e := c.free
	if e == nil {
		return &entry{key: k}
	}
	c.free, c.nfree = e.next, c.nfree-1
	e.next, e.key = nil, k
	return e
}

// recycle keeps an entry the cache no longer links anywhere, up to maxFree of
// them, for newEntry. Nothing outside the lock reads an entry, so nothing
// sees it again. Caller holds mu.
func (c *Cache) recycle(e *entry) {
	if c.nfree < maxFree {
		*e = entry{next: c.free}
		c.free = e
		c.nfree++
	}
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Shared:     c.shared,
		Evictions:  c.evictions,
		Promotions: c.promotions,
		Entries:    len(c.entries),
		Bytes:      c.main.bytes + c.probation.bytes,
	}
}
