package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// CascadeKnownD solves SSRK with Algorithm 2, "Cascading IBLTs of IBLTs"
// (Theorem 3.7). It exploits that there are O(d) total changes across child
// sets rather than O(d) changes in each: for i = 1..t with
// t = ⌈log₂ min(d, h)⌉, Alice sends a parent IBLT T_i of O(d/2^i) cells
// whose keys are (O(2^i)-cell child IBLT, hash) encodings; child sets with
// small differences decode at low levels, and each recovered set is deleted
// from all later levels. When d ≥ h a final table T* of O(d/h) cells carries
// full child-set encodings for the stragglers. One round,
// O(d log min(d,h) log u + d log s) bits, success probability Ω(1)
// (amplify with Replicated, or use CascadeUnknownD's verified doubling).
func CascadeKnownD(sess transport.Channel, coins hashing.Coins, alice, bob [][]uint64, p Params, d int) (*Result, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if d < 1 {
		d = 1
	}
	// --- Alice: build T_1..T_t (and T*), send all in one round. ---
	payload, err := AliceMsg(DigestCascade, coins, alice, p, d, 0)
	if err != nil {
		return nil, err
	}
	msg := sess.Send(transport.Alice, "cascade-iblts", payload)

	// --- Bob ---
	res, err := ApplyMsg(DigestCascade, coins, msg, bob, p, d, 0)
	if err != nil {
		return nil, err
	}
	res.Stats = sess.Stats()
	res.Attempts = 1
	res.DUsed = d
	return res, nil
}

// cascadePlan fixes every size and seed both parties derive from (coins, p, d).
type cascadePlan struct {
	p         Params
	d         int
	t         int
	star      bool
	level     []childCodec // level[i-1] is the codec for T_i
	starCodec naiveCodec
	coins     hashing.Coins
}

func newCascadePlan(coins hashing.Coins, p Params, d int) *cascadePlan {
	plan := new(cascadePlan)
	plan.init(coins, p, d)
	return plan
}

// init derives the plan of (coins, p, d) in place, keeping the level slice of
// an earlier plan when it is long enough.
func (pl *cascadePlan) init(coins hashing.Coins, p Params, d int) {
	t, star := cascadeLevels(p, d)
	*pl = cascadePlan{p: p, d: d, t: t, star: star, coins: coins, level: pl.level[:0]}
	for i := 1; i <= t; i++ {
		pl.level = append(pl.level, newChildCodec(coins, "cascade/child", i, iblt.CellsTight(1<<i), p.H))
	}
	pl.starCodec = newNaiveCodec(p)
}

func (pl *cascadePlan) parentSeed(i int) uint64 { return pl.coins.Seed("cascade/parent", i) }
func (pl *cascadePlan) starSeed() uint64        { return pl.coins.Seed("cascade/star", 0) }

// parentCells sizes T_i: level 1 must hold the full symmetric difference of
// encodings (≤ 2·d̂); level i holds Alice's not-yet-recovered child sets,
// bounded by (9/4)·d/2^(i-1) in the paper's analysis.
func (pl *cascadePlan) parentCells(i int) int {
	dHat := DHat(pl.d, pl.p.S)
	if i == 1 {
		return iblt.CellsFor(2 * dHat)
	}
	// The paper's analysis leaves at most (9/4)·d/2^(i-1) unrecovered keys
	// entering T_i.
	bound := (9 * pl.d) >> uint(i+1)
	if bound > dHat {
		bound = dHat
	}
	if bound < 2 {
		bound = 2
	}
	return iblt.CellsFor(bound)
}

func (pl *cascadePlan) starCells() int {
	bound := (3*pl.d)/(2*pl.p.H) + 2
	return iblt.CellsFor(bound)
}

// msgSize is the exact length of the Algorithm 2 payload: level count, one
// framed table per level, the star flag and its framed table, parent hash.
func (pl *cascadePlan) msgSize() int {
	n := 4
	for i := 1; i <= pl.t; i++ {
		n += 4 + iblt.SerializedSizeFor(pl.parentCells(i), pl.level[i-1].width, 0)
	}
	n++
	if pl.star {
		n += 4 + iblt.SerializedSizeFor(pl.starCells(), pl.starCodec.width, 0)
	}
	return n + 8
}

// getWork takes a workspace from the pool; putWork releases it and hands it
// back. Every one-round encode and decode — Alice's three payloads, Bob's
// three applies, a sketch build or patch — runs on exactly one.
func getWork() *cascadeWork { return cascadeWorkPool.Get().(*cascadeWork) }

func putWork(w *cascadeWork) {
	w.release()
	cascadeWorkPool.Put(w)
}

var cascadeWorkPool = sync.Pool{New: func() any { return newCascadeWork() }}

func newCascadeWork() *cascadeWork {
	return &cascadeWork{
		byHash:      make(map[uint64][]uint64),
		removed:     make(map[uint64]bool),
		outstanding: make(map[uint64]bool),
		recovered:   make(map[uint64][]uint64),
		tally:       make(map[uint64]int32),
	}
}

// cascadeWork is the scratch of one one-round encode or decode, whichever the
// protocol: the one parent table reshaped for every level, the child and
// full-set encoders, and on Bob's side the split message, the hash indexes,
// the packed parent diff and the recovered children. A hot call (same shape
// as the one before it on this workspace) finds every buffer already large
// enough and allocates only what it returns: Alice her payload, Bob his
// Result, which is copied out (assembleHashed, sortSets) and shares no memory
// with the workspace, with msg, or with bob's child slices beyond what those
// copies read. Building or patching a Bob sketch borrows the same workspace
// for its encoders and the parent diff. Nothing in a released workspace
// refers to the caller's message or parent set, so the pool pins no caller
// data.
type cascadeWork struct {
	plan        cascadePlan         // the cascade plan of a call that was not handed one
	frames      [][]byte            // per-level table bodies, slices of the message
	byHash      map[uint64][]uint64 // Bob's child set by its hash
	removed     map[uint64]bool     // hashes of D_B, Bob's differing child sets
	outstanding map[uint64]bool     // Alice's differing child-set hashes not yet recovered
	recovered   map[uint64][]uint64 // Alice's child hash -> recovered set
	dA, dB      [][]uint64          // recovered sets (in rec's arena) and Bob's differing sets
	hashes      []uint64            // Bob's child hashes, computed here when no sketch has them
	sorted      []uint64            // the parent verification hash's sorted child hashes
	parent      iblt.Table          // one parent table, reshaped for every level
	diff        iblt.PackedDiff
	rec         childRecoverer
	enc         childEncoder
	star        naiveEncoder
	shapes      []iblt.Shape     // a sketch build's table shapes
	tally       map[uint64]int32 // diffParents: occurrences of a child hash in the old parent not yet matched
	gone, come  [][]uint64       // diffParents: the children only the old, only the new parent holds

	// Per run, dropped by release.
	bob       [][]uint64
	bobHashes []uint64 // hashes, or the sketch's
	peels     int
}

// release drops every reference to the finished run's inputs and empties the
// collections, keeping their storage.
func (w *cascadeWork) release() {
	clear(w.frames[:cap(w.frames)])
	clear(w.dB[:cap(w.dB)])
	clear(w.dA[:cap(w.dA)])
	clear(w.gone[:cap(w.gone)])
	clear(w.come[:cap(w.come)])
	w.frames, w.dA, w.dB, w.gone, w.come = w.frames[:0], w.dA[:0], w.dB[:0], w.gone[:0], w.come[:0]
	clear(w.byHash)
	clear(w.removed)
	clear(w.outstanding)
	clear(w.recovered)
	w.rec.forget()
	w.bob, w.bobHashes, w.peels = nil, nil, 0
}

// diffParents splits two sketches' parents into the children only old holds
// and the children only next holds, matching children by hash as multisets: a
// child held twice by one parent and once by the other differs once. The
// lists are valid until release.
func (w *cascadeWork) diffParents(old, next *BobSketch) (gone, come [][]uint64) {
	for _, h := range old.bobHashes {
		w.tally[h]++
	}
	for i, h := range next.bobHashes {
		if n := w.tally[h]; n > 0 {
			w.tally[h] = n - 1
		} else {
			w.come = append(w.come, next.bob[i])
		}
	}
	for i, h := range old.bobHashes {
		if n := w.tally[h]; n > 0 {
			w.tally[h] = n - 1
			w.gone = append(w.gone, old.bob[i])
		}
	}
	clear(w.tally)
	return w.gone, w.come
}

// encoder retargets the workspace's child encoder at codec.
func (w *cascadeWork) encoder(codec childCodec) *childEncoder {
	w.enc.reuse(codec)
	return &w.enc
}

// parentHash is the package's parentHash with the sort done in the workspace.
func (w *cascadeWork) parentHash(coins hashing.Coins, parent [][]uint64) (h uint64) {
	h, w.sorted = parentHashScratch(w.sorted, coins, parent)
	return h
}

// hashBob computes Bob's child hashes, or adopts a sketch's.
func (w *cascadeWork) hashBob(chs uint64, bob [][]uint64, sk *BobSketch) {
	w.bob = bob
	if sk != nil {
		w.bobHashes = sk.bobHashes
		return
	}
	w.hashes = slices.Grow(w.hashes[:0], len(bob))[:len(bob)]
	for i, cs := range bob {
		w.hashes[i] = setutil.Hash(chs, cs)
	}
	w.bobHashes = w.hashes
}

// indexBob maps each of Bob's child hashes (hashBob) to its child set.
func (w *cascadeWork) indexBob() {
	for i, cs := range w.bob {
		w.byHash[w.bobHashes[i]] = cs
	}
}

// differing records the removed side of a level-1 (or only) parent diff: each
// encoding's hash must be one of Bob's children, which joins D_B.
func (w *cascadeWork) differing(codec childCodec) error {
	for _, e := range w.diff.Removed {
		h, err := codec.encHash(e)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrChildDecode, err)
		}
		cs, ok := w.byHash[h]
		if !ok {
			return fmt.Errorf("%w: removed encoding matches none of Bob's child sets", ErrChildDecode)
		}
		w.dB = append(w.dB, cs)
		w.removed[h] = true
	}
	return nil
}

// result verifies Bob's reassembled parent against Alice's hash and copies
// the outcome out of the workspace.
func (w *cascadeWork) result(coins hashing.Coins, wantParent uint64) (*Result, error) {
	final := assembleHashed(w.bob, w.bobHashes, w.dA, w.removed)
	if w.parentHash(coins, final) != wantParent {
		return nil, ErrVerify
	}
	return &Result{Recovered: final, Added: sortSets(w.dA), Removed: sortSets(w.dB), PeelIterations: w.peels + w.rec.peels}, nil
}

// loadParent parses a level's table body into the parent scratch and removes
// Bob's children from it: all of them when skipRemoved is false, all except
// D_B otherwise. With a sketch that is one subtraction of its aggregate (plus
// re-inserting D_B); without, every child is re-encoded.
func (w *cascadeWork) loadParent(body []byte, codec childCodec, agg *iblt.Table, skipRemoved bool) error {
	if err := w.parent.UnmarshalInto(body); err != nil {
		return err
	}
	if w.parent.Width() != codec.width {
		return fmt.Errorf("%w: parent key width %d != %d", ErrParentDecode, w.parent.Width(), codec.width)
	}
	if agg != nil {
		if err := w.parent.Subtract(agg); err != nil {
			return fmt.Errorf("%w: %v", ErrParentDecode, err)
		}
		if skipRemoved { // re-insert D_B: net effect is "delete all except D_B"
			e := w.encoder(codec)
			for i, cs := range w.bob {
				if w.removed[w.bobHashes[i]] {
					w.parent.Insert(e.encode(cs))
				}
			}
		}
		return nil
	}
	e := w.encoder(codec)
	for i, cs := range w.bob {
		if !skipRemoved || !w.removed[w.bobHashes[i]] {
			w.parent.Delete(e.encode(cs))
		}
	}
	return nil
}

// tryRecover parses one of Alice's differing child encodings at the current
// level (w.rec.c) and tries to rebuild her child set from it against D_B.
func (w *cascadeWork) tryRecover(e []byte) error {
	hA, err := w.rec.decodeEnc(e)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrChildDecode, err)
	}
	if !w.outstanding[hA] {
		if _, done := w.recovered[hA]; done {
			return nil // already recovered at an earlier level
		}
		w.outstanding[hA] = true // first sighting (level 1 adds its own below)
	}
	if r, ok := w.rec.recoverFromCandidates(hA, w.dB); ok {
		w.recovered[hA] = r
		delete(w.outstanding, hA)
		w.dA = append(w.dA, r)
	}
	return nil
}

func (w *cascadeWork) runCascade(coins hashing.Coins, plan *cascadePlan, msg []byte, bob [][]uint64, sk *BobSketch) (*Result, error) {
	if len(msg) < 4+1+8 {
		return nil, fmt.Errorf("core: short cascade message")
	}
	t := int(binary.LittleEndian.Uint32(msg))
	if t != plan.t {
		return nil, fmt.Errorf("core: cascade level count %d != plan %d", t, plan.t)
	}
	if sk != nil && (sk.plan.t != t || sk.plan.star != plan.star) {
		return nil, fmt.Errorf("%w: Bob sketch level mismatch", ErrBadDigest)
	}
	// Split the message into per-level frames up front; each level's table is
	// parsed lazily into the one parent scratch table.
	off := 4
	for i := 0; i < t; i++ {
		body, n, err := readFramed(msg[off:])
		if err != nil {
			return nil, err
		}
		off += n
		w.frames = append(w.frames, body)
	}
	if off >= len(msg) {
		return nil, fmt.Errorf("core: cascade message missing star flag")
	}
	var starFrame []byte
	if msg[off] == 1 {
		off++
		body, n, err := readFramed(msg[off:])
		if err != nil {
			return nil, err
		}
		off += n
		starFrame = body
		if len(starFrame) == 0 {
			return nil, fmt.Errorf("core: empty star frame")
		}
	} else {
		off++
	}
	if len(msg) < off+8 {
		return nil, fmt.Errorf("core: cascade message missing parent hash")
	}
	wantParent := binary.LittleEndian.Uint64(msg[off:])

	chs := childSeed(coins)
	w.hashBob(chs, bob, sk)
	w.indexBob()

	// --- Level 1: delete all of Bob's encodings, find D_B and the full set
	// of Alice's differing encodings. ---
	codec1 := plan.level[0]
	var agg1 *iblt.Table
	if sk != nil {
		agg1 = sk.tables[0]
	}
	if err := w.loadParent(w.frames[0], codec1, agg1, false); err != nil {
		return nil, err
	}
	if err := w.parent.DecodePacked(&w.diff); err != nil {
		return nil, fmt.Errorf("%w: level 1: %v", ErrParentDecode, err)
	}
	w.peels += w.parent.PeelCount()
	if err := w.differing(codec1); err != nil {
		return nil, err
	}
	for _, e := range w.diff.Added {
		hA, err := codec1.encHash(e)
		if err != nil {
			return nil, fmt.Errorf("%w: level 1: %v", ErrChildDecode, err)
		}
		w.outstanding[hA] = true
	}
	w.rec.c = codec1
	for _, e := range w.diff.Added {
		if err := w.tryRecover(e); err != nil {
			return nil, err
		}
	}

	// --- Levels 2..t: delete everything known, extract the remainder. ---
	for i := 2; i <= t; i++ {
		codec := plan.level[i-1]
		w.rec.c = codec
		var agg *iblt.Table
		if sk != nil {
			agg = sk.tables[i-1]
		}
		if err := w.loadParent(w.frames[i-1], codec, agg, true); err != nil {
			return nil, err
		}
		e := w.encoder(codec)
		for _, r := range w.recovered { // all of D_A so far
			w.parent.Delete(e.encode(r))
		}
		if err := w.parent.DecodePacked(&w.diff); err != nil {
			// A parent-level peel failure at level i is fatal only if the
			// stragglers cannot be caught later; report it.
			return nil, fmt.Errorf("%w: level %d: %v", ErrParentDecode, i, err)
		}
		w.peels += w.parent.PeelCount()
		if len(w.diff.Removed) != 0 {
			return nil, fmt.Errorf("%w: level %d: unexpected negative keys", ErrParentDecode, i)
		}
		for _, e := range w.diff.Added {
			if err := w.tryRecover(e); err != nil {
				return nil, err
			}
		}
	}

	// --- T*: full encodings for anything still outstanding. ---
	if starFrame != nil {
		if err := w.parent.UnmarshalInto(starFrame); err != nil {
			return nil, err
		}
		if w.parent.Width() != plan.starCodec.width {
			return nil, fmt.Errorf("%w: T* key width %d != %d", ErrParentDecode, w.parent.Width(), plan.starCodec.width)
		}
		w.star.reuse(plan.starCodec)
		if sk != nil {
			if err := w.parent.Subtract(sk.tables[t]); err != nil {
				return nil, fmt.Errorf("%w: T*: %v", ErrParentDecode, err)
			}
			for i, cs := range bob {
				if w.removed[w.bobHashes[i]] {
					w.parent.Insert(w.star.encode(cs))
				}
			}
		} else {
			for i, cs := range bob {
				if !w.removed[w.bobHashes[i]] {
					w.parent.Delete(w.star.encode(cs))
				}
			}
		}
		for _, r := range w.recovered {
			w.parent.Delete(w.star.encode(r))
		}
		if err := w.parent.DecodePacked(&w.diff); err != nil {
			return nil, fmt.Errorf("%w: T*: %v", ErrParentDecode, err)
		}
		w.peels += w.parent.PeelCount()
		if len(w.diff.Removed) != 0 {
			return nil, fmt.Errorf("%w: T*: unexpected negative keys", ErrParentDecode)
		}
		for _, e := range w.diff.Added {
			var err error
			if w.rec.merge, err = plan.starCodec.appendDecode(w.rec.merge[:0], e); err != nil {
				return nil, fmt.Errorf("%w: T*: %v", ErrChildDecode, err)
			}
			h := setutil.Hash(chs, w.rec.merge)
			if _, done := w.recovered[h]; done {
				continue
			}
			cs := w.rec.keep(w.rec.merge)
			w.recovered[h] = cs
			delete(w.outstanding, h)
			w.dA = append(w.dA, cs)
		}
	}

	if len(w.outstanding) != 0 {
		return nil, fmt.Errorf("%w: %d child sets unrecovered", ErrChildDecode, len(w.outstanding))
	}
	return w.result(coins, wantParent)
}

// CascadeUnknownD solves SSRU per Corollary 3.8: repeated doubling over d
// with per-attempt coins and Bob acknowledgements (O(log d) rounds).
func CascadeUnknownD(sess transport.Channel, coins hashing.Coins, alice, bob [][]uint64, p Params) (*Result, error) {
	return doublingLoop(sess, coins, alice, bob, p, func(sess transport.Channel, att hashing.Coins, d int) (*Result, error) {
		return CascadeKnownD(sess, att, alice, bob, p, d)
	})
}

func appendFramed(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

// appendFramedTable is appendFramed(dst, t.Marshal()) without the
// intermediate copy of the table.
func appendFramedTable(dst []byte, t *iblt.Table) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.SerializedSize()))
	return t.AppendMarshal(dst)
}

func readFramed(buf []byte) (body []byte, consumed int, err error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("core: truncated frame")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) < 4+n {
		return nil, 0, fmt.Errorf("core: truncated frame body (%d < %d)", len(buf)-4, n)
	}
	return buf[4 : 4+n], 4 + n, nil
}
