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
package enccache

import (
	"container/list"
	"fmt"
	"sync"
)

// Key identifies one exact Alice-side encoding. Seed must already encode any
// per-attempt derivation (replica index, doubling step) — callers pass the
// derived coins' master seed, not the session seed.
type Key struct {
	// Dataset and Version pin the exact data snapshot that was encoded.
	Dataset string
	Version uint64
	// Proto names the payload flavor ("cascade", "nested", "naive",
	// "set-iblt", "charpoly", "mr1", ...).
	Proto string
	// Seed is the derived public-coin master for this attempt.
	Seed uint64
	// S, H, U, D, DHat pin the instance shape and difference bounds.
	S, H    int
	U       uint64
	D, DHat int
	// Extra pins any remaining builder inputs that have no dedicated field
	// (e.g. the client-supplied side info a forest plan depends on). Callers
	// must render every such input into this string; two sessions whose
	// payloads could differ must never share a key.
	Extra string
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits      uint64 // lookups served from memory
	Misses    uint64 // lookups that ran the builder
	Shared    uint64 // lookups that piggybacked on an in-flight build
	Evictions uint64 // entries pushed out by the byte bound
	Entries   int    // resident entries
	Bytes     int64  // resident payload bytes
}

// Cache is a byte-bounded LRU of encoded payloads, safe for concurrent use.
type Cache struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	ll        *list.List // front = most recently used; values are *entry
	entries   map[Key]*list.Element
	inflight  map[Key]*call
	hits      uint64
	misses    uint64
	shared    uint64
	evictions uint64
}

// entry is one resident value: a payload of one or more frames, or an opaque
// decoded value (val non-nil, frames nil). Single-frame payloads (sets,
// one-round sos digests), composite payloads (graph sig + edge frames, forest
// sig + meta frames), and decode-side values (Bob sketches) share the same
// LRU byte budget; the shape is part of what the builder produced, not of the
// key.
type entry struct {
	key    Key
	frames [][]byte
	val    any
	size   int64
}

// call is one in-flight build other lookups can wait on.
type call struct {
	done   chan struct{}
	frames [][]byte
	val    any
	size   int64
	err    error
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
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element),
		inflight: make(map[Key]*call),
	}
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
	e, _, err := c.getOrCompute(k, nil, func(*entry) (*entry, error) {
		frames, err := build()
		if err != nil {
			return nil, err
		}
		return &entry{frames: frames, size: framesSize(frames)}, nil
	})
	if err != nil {
		return nil, err
	}
	return e.frames, nil
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
	var fresh func(*entry) bool
	if current != nil {
		fresh = func(e *entry) bool { return current(e.val) }
	}
	e, hit, err := c.getOrCompute(k, fresh, func(prev *entry) (*entry, error) {
		var pv any
		if prev != nil {
			pv = prev.val
		}
		v, size, err := build(pv)
		if err != nil {
			return nil, err
		}
		return &entry{val: v, size: size}, nil
	})
	if err != nil {
		return nil, hit, err
	}
	return e.val, hit, nil
}

// getOrCompute is the shared lookup/coalesce/insert path. build returns a
// keyless entry (frames or val plus size) that getOrCompute stores. A
// resident entry that fresh (when non-nil) rejects counts as a miss and is
// passed to build, whose result replaces it. fresh is caller code and runs
// without the lock; whatever became resident meanwhile is still replaced.
func (c *Cache) getOrCompute(k Key, fresh func(*entry) bool, build func(prev *entry) (*entry, error)) (e *entry, hit bool, err error) {
	var prev *entry
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		prev = el.Value.(*entry)
		c.ll.MoveToFront(el)
	}
	hit = prev != nil
	if hit && fresh != nil {
		c.mu.Unlock()
		hit = fresh(prev)
		c.mu.Lock()
	}
	if hit {
		c.hits++
		c.mu.Unlock()
		return prev, true, nil
	}
	if cl, ok := c.inflight[k]; ok {
		c.shared++
		c.mu.Unlock()
		<-cl.done
		if cl.err != nil {
			return nil, false, cl.err
		}
		return &entry{key: k, frames: cl.frames, val: cl.val, size: cl.size}, false, nil
	}
	cl := &call{done: make(chan struct{})}
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
			cl.err = fmt.Errorf("enccache: builder panicked for %q/%s", k.Dataset, k.Proto)
			close(cl.done)
			c.mu.Lock()
			delete(c.inflight, k)
			c.mu.Unlock()
		}
	}()
	built, err := build(prev)
	if err == nil {
		cl.frames, cl.val, cl.size = built.frames, built.val, built.size
	}
	cl.err = err
	completed = true
	close(cl.done)

	c.mu.Lock()
	delete(c.inflight, k)
	if cl.err == nil {
		built.key = k
		c.insert(built)
	}
	c.mu.Unlock()
	if cl.err != nil {
		return nil, false, cl.err
	}
	return built, false, nil
}

// insert stores a built entry, in place of the key's resident one if there
// is one, and evicts from the LRU tail until the byte bound holds. Oversized
// payloads (> half the bound) are not retained — one giant value must not
// flush the whole working set — and the value they would have replaced goes
// too: it is stale. Caller holds mu.
func (c *Cache) insert(ne *entry) {
	el, ok := c.entries[ne.key]
	if ne.size > c.maxBytes/2 {
		if ok {
			c.ll.Remove(el)
			delete(c.entries, ne.key)
			c.bytes -= el.Value.(*entry).size
		}
		return
	}
	if ok {
		// The list element gets a new entry rather than new fields: lookups
		// that returned the old one read it without the lock.
		c.bytes += ne.size - el.Value.(*entry).size
		el.Value = ne
		c.ll.MoveToFront(el)
	} else {
		c.entries[ne.key] = c.ll.PushFront(ne)
		c.bytes += ne.size
	}
	for c.bytes > c.maxBytes {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*entry)
		c.ll.Remove(tail)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Shared:    c.shared,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}
