package sosrnet

import (
	"sosr/internal/core"
	"sosr/internal/enccache"
	"sosr/internal/hashing"
)

// Client-side decode caching: the Bob twin of the server's Alice encoding
// cache. A client that repeatedly reconciles a local parent set against a
// hosted dataset re-derives the same child encodings every session — a pure
// function of (local data, derived coins, instance shape, bounds) under the
// public-coin model. The client therefore keeps core.BobSketch aggregates in
// a byte-bounded LRU and subtracts them per session instead of re-encoding,
// which is where the Bob-side decode spends most of its time. Sketches are
// read-only after construction, so concurrent sessions of one Client share
// them safely.
//
// An entry is keyed by (dataset, protocol, derived coins, shape, bounds) and
// holds the newest sketch under that key. A session whose parent is the one
// it covers subtracts it (hit). A session whose parent differs derives its
// own sketch from the resident one (core.NextBobSketch) and puts it in the
// entry's place, so a replica that adopts every result keeps one sketch per
// key however many versions it goes through. The first sketch under a key
// keeps no copy of its parent, so the first successor is built like it
// (miss); successors retain theirs, charged to the cache's byte budget, and
// from then on only the children that changed are re-encoded (patch).

// Sketch lookup outcomes: the decode span's "sketch" attribute and, with
// miss for build, the event label of sosr_decodecache_events_total.
const (
	sketchHit   = "hit"
	sketchPatch = "patch"
	sketchBuild = "build"
)

// sosApply carries one sets-of-sets session's Bob state: the session record,
// the canonical local parent, the family and row the accept resolved to, the
// instance shape, and the result of the attempt that succeeded.
type sosApply struct {
	clientSession
	name string
	// bob is the caller's parent, read in place, or a canonical copy of it; a
	// sketch that retains an equal copy of its own replaces it (sketch).
	bob [][]uint64
	fam *sosFamily
	fl  *flow // nil for multi-round
	p   core.Params
	res *core.Result
}

// apply runs one cached Bob step under the bounds attempt k was encoded with
// (the mirror of the server's sosPlan.attemptBounds): look up (or derive) the
// sketch for this exact decode shape and subtract it instead of re-encoding
// the local data.
func (a *sosApply) apply(k int, coins hashing.Coins, frames [2][]byte) (err error) {
	d, dHat := a.acc.D, a.acc.DHat
	switch {
	case a.fl.sched == doubling:
		d, dHat = 1<<k, core.DHat(1<<k, a.p.S)
	case a.fl.probe != "":
		// The shot after a probe is sized by the server's estimate of d̂,
		// which Bob never learns: there is no bound to key a sketch on, the
		// apply re-encodes, and its table is as large as the message.
		d, dHat = 1, 0
	}
	dsp := a.sp.Child("decode")
	dsp.SetInt("d", int64(d))
	dsp.SetInt("dhat", int64(dHat))
	var sk *core.BobSketch
	if dHat > 0 {
		var outcome string
		var delta int
		if sk, outcome, delta = a.sketch(coins, d, dHat); sk != nil {
			dsp.SetStr("sketch", outcome)
			if outcome == sketchPatch {
				dsp.SetInt("sketch_delta", int64(delta))
			}
		}
	}
	a.res, err = core.ApplyMsgCached(a.fam.digest, coins, frames[0], a.bob, a.p, d, dHat, sk)
	if err == nil {
		a.c.observePeels(a.res.PeelIterations)
		dsp.SetInt("peels", int64(a.res.PeelIterations))
	}
	endDecode(dsp, err)
	return err
}

// sketch returns the Bob sketch of the session's parent for this decode
// shape and how it was come by, or nil when caching is disabled or the build
// failed (the plain re-encoding path is always a correct fallback). delta is
// the number of children a patch re-encoded.
func (a *sosApply) sketch(coins hashing.Coins, d, dHat int) (sk *core.BobSketch, outcome string, delta int) {
	kind := a.fam.digest
	cache := a.c.sketchCache()
	if cache == nil {
		return nil, "", 0
	}
	k := enccache.Key{
		Dataset: a.name, Proto: a.fam.name, Extra: "bob", Seed: coins.Master(),
		S: a.p.S, H: a.p.H, U: a.p.U, D: d, DHat: dHat,
	}
	delta = -1
	built := false
	holds := func(v any) bool { return v.(*core.BobSketch).Holds(a.bob) }
	v, hit, err := cache.GetOrComputeValue(k, holds, func(prev any) (any, int64, error) {
		from, _ := prev.(*core.BobSketch)
		next, n, err := core.NextBobSketch(from, kind, coins, a.bob, a.p, d, dHat)
		if err != nil {
			return nil, 0, err
		}
		built, delta = true, n
		return next, next.SizeBytes(), nil
	})
	if err != nil {
		return nil, "", 0
	}
	if sk = v.(*core.BobSketch); !hit && !built && !holds(sk) {
		// The lookup waited on a concurrent session's build under this key,
		// and that session's parent is not this one's: its sketch is the
		// predecessor of a private one.
		if sk, delta, err = core.NextBobSketch(sk, kind, coins, a.bob, a.p, d, dHat); err != nil {
			return nil, "", 0
		}
	}
	switch {
	case hit:
		outcome = sketchHit
	case delta >= 0:
		outcome = sketchPatch
	default:
		outcome = sketchBuild
	}
	a.c.observeDecodeCache(outcome)
	// A sketch that retains its parent holds a private copy equal to a.bob:
	// decoding against that copy lets ApplyMsgCached's Holds recognise the
	// slice instead of hashing every child again.
	if p := sk.Parent(); p != nil {
		a.bob = p
	}
	return sk, outcome, delta
}

// sketchCache lazily constructs the client's sketch cache, honoring
// CacheBytes at first use (0 = enccache.DefaultMaxBytes, negative disables).
func (c *Client) sketchCache() *enccache.Cache {
	c.cacheOnce.Do(func() {
		if c.CacheBytes >= 0 {
			c.cache = enccache.New(c.CacheBytes)
		}
	})
	return c.cache
}

// CacheStats reports the Bob-side sketch cache counters (zero value when
// caching is disabled).
func (c *Client) CacheStats() enccache.Stats {
	cache := c.sketchCache()
	if cache == nil {
		return enccache.Stats{}
	}
	return cache.Stats()
}
