package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

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
	plan := newCascadePlan(coins, p, d)

	// --- Alice: build T_1..T_t (and T*), send all in one round. ---
	msg := sess.Send(transport.Alice, "cascade-iblts", cascadeAliceMsg(plan, coins, alice))

	// --- Bob ---
	res, err := cascadeBob(coins, plan, msg, bob, nil)
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
	md := d
	if p.H < md {
		md = p.H
	}
	t := bits.Len(uint(md - 1)) // ⌈log2 md⌉ for md ≥ 2
	if t < 1 {
		t = 1
	}
	plan := &cascadePlan{p: p, d: d, t: t, star: d >= p.H, coins: coins}
	for i := 1; i <= t; i++ {
		plan.level = append(plan.level, newChildCodec(coins, "cascade/child", i, iblt.CellsTight(1<<i), p.H))
	}
	plan.starCodec = newNaiveCodec(p)
	return plan
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

func cascadeBob(coins hashing.Coins, plan *cascadePlan, msg []byte, bob [][]uint64, sk *BobSketch) (*Result, error) {
	if len(msg) < 4+1+8 {
		return nil, fmt.Errorf("core: short cascade message")
	}
	t := int(binary.LittleEndian.Uint32(msg))
	if t != plan.t {
		return nil, fmt.Errorf("core: cascade level count %d != plan %d", t, plan.t)
	}
	if sk != nil && (len(sk.tables) != t || (sk.star == nil) == plan.star) {
		return nil, fmt.Errorf("%w: Bob sketch level mismatch", ErrBadDigest)
	}
	// Split the message into per-level frames up front; each level's table is
	// parsed lazily into one scratch table reused across levels.
	off := 4
	frames := make([][]byte, t)
	for i := 0; i < t; i++ {
		body, n, err := readFramed(msg[off:])
		if err != nil {
			return nil, err
		}
		off += n
		frames[i] = body
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
	var bobHashes []uint64
	if sk != nil {
		bobHashes = sk.bobHashes
	} else {
		bobHashes = make([]uint64, len(bob))
		for i, cs := range bob {
			bobHashes[i] = setutil.Hash(chs, cs)
		}
	}
	byHash := make(map[uint64][]uint64, len(bob))
	for i, cs := range bob {
		byHash[bobHashes[i]] = cs
	}

	// Per-level scratch, shared across the whole receive path.
	var parent iblt.Table
	var diff iblt.PackedDiff
	var rec childRecoverer
	var enc *childEncoder
	getEnc := func(c childCodec) *childEncoder {
		if enc == nil {
			enc = c.encoder()
		} else {
			enc.reuse(c)
		}
		return enc
	}
	peels := 0
	// loadParent parses level frame body and subtracts Bob's aggregate (from
	// the sketch, or by re-encoding every child not in skip).
	loadParent := func(body []byte, codec childCodec, agg *iblt.Table, skip map[uint64]bool) error {
		if err := parent.UnmarshalInto(body); err != nil {
			return err
		}
		if parent.Width() != codec.width {
			return fmt.Errorf("%w: parent key width %d != %d", ErrParentDecode, parent.Width(), codec.width)
		}
		if agg != nil {
			if err := parent.Subtract(agg); err != nil {
				return fmt.Errorf("%w: %v", ErrParentDecode, err)
			}
			if skip != nil { // re-insert D_B: net effect is "delete all except D_B"
				e := getEnc(codec)
				for i, cs := range bob {
					if skip[bobHashes[i]] {
						parent.Insert(e.encode(cs))
					}
				}
			}
			return nil
		}
		e := getEnc(codec)
		for i, cs := range bob {
			if skip == nil || !skip[bobHashes[i]] {
				parent.Delete(e.encode(cs))
			}
		}
		return nil
	}

	// --- Level 1: delete all of Bob's encodings, find D_B and the full set
	// of Alice's differing encodings. ---
	codec1 := plan.level[0]
	var agg1 *iblt.Table
	if sk != nil {
		agg1 = sk.tables[0]
	}
	if err := loadParent(frames[0], codec1, agg1, nil); err != nil {
		return nil, err
	}
	if err := parent.DecodePacked(&diff); err != nil {
		return nil, fmt.Errorf("%w: level 1: %v", ErrParentDecode, err)
	}
	peels += parent.PeelCount()
	var dB [][]uint64
	removedHashes := make(map[uint64]bool, len(diff.Removed))
	for _, e := range diff.Removed {
		h, err := codec1.encHash(e)
		if err != nil {
			return nil, fmt.Errorf("%w: level 1: %v", ErrChildDecode, err)
		}
		cs, ok := byHash[h]
		if !ok {
			return nil, fmt.Errorf("%w: level 1 removed hash unknown", ErrChildDecode)
		}
		dB = append(dB, cs)
		removedHashes[h] = true
	}
	// outstanding: Alice's differing child-set hashes not yet recovered.
	outstanding := make(map[uint64]bool, len(diff.Added))
	var dA [][]uint64
	recovered := make(map[uint64][]uint64) // alice child hash -> recovered set
	tryRecover := func(e []byte) error {
		hA, err := rec.decodeEnc(e)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrChildDecode, err)
		}
		if !outstanding[hA] {
			if _, done := recovered[hA]; done {
				return nil // already recovered at an earlier level
			}
			outstanding[hA] = true // first sighting (level 1 path adds below)
		}
		if r, ok := rec.recoverFromCandidates(hA, dB); ok {
			recovered[hA] = r
			delete(outstanding, hA)
			dA = append(dA, r)
		}
		return nil
	}
	for _, e := range diff.Added {
		hA, err := codec1.encHash(e)
		if err != nil {
			return nil, fmt.Errorf("%w: level 1: %v", ErrChildDecode, err)
		}
		outstanding[hA] = true
	}
	rec.c = codec1
	for _, e := range diff.Added {
		if err := tryRecover(e); err != nil {
			return nil, err
		}
	}

	// --- Levels 2..t: delete everything known, extract the remainder. ---
	for i := 2; i <= t; i++ {
		codec := plan.level[i-1]
		rec.c = codec
		var agg *iblt.Table
		if sk != nil {
			agg = sk.tables[i-1]
		}
		if err := loadParent(frames[i-1], codec, agg, removedHashes); err != nil {
			return nil, err
		}
		e := getEnc(codec)
		for _, r := range recovered { // all of D_A so far
			parent.Delete(e.encode(r))
		}
		if err := parent.DecodePacked(&diff); err != nil {
			// A parent-level peel failure at level i is fatal only if the
			// stragglers cannot be caught later; report it.
			return nil, fmt.Errorf("%w: level %d: %v", ErrParentDecode, i, err)
		}
		peels += parent.PeelCount()
		if len(diff.Removed) != 0 {
			return nil, fmt.Errorf("%w: level %d: unexpected negative keys", ErrParentDecode, i)
		}
		for _, e := range diff.Added {
			if err := tryRecover(e); err != nil {
				return nil, err
			}
		}
	}

	// --- T*: full encodings for anything still outstanding. ---
	if starFrame != nil {
		if err := parent.UnmarshalInto(starFrame); err != nil {
			return nil, err
		}
		if parent.Width() != plan.starCodec.width {
			return nil, fmt.Errorf("%w: T* key width %d != %d", ErrParentDecode, parent.Width(), plan.starCodec.width)
		}
		starEnc := plan.starCodec.encoder()
		if sk != nil {
			if err := parent.Subtract(sk.star); err != nil {
				return nil, fmt.Errorf("%w: T*: %v", ErrParentDecode, err)
			}
			for i, cs := range bob {
				if removedHashes[bobHashes[i]] {
					parent.Insert(starEnc.encode(cs))
				}
			}
		} else {
			for i, cs := range bob {
				if !removedHashes[bobHashes[i]] {
					parent.Delete(starEnc.encode(cs))
				}
			}
		}
		for _, r := range recovered {
			parent.Delete(starEnc.encode(r))
		}
		if err := parent.DecodePacked(&diff); err != nil {
			return nil, fmt.Errorf("%w: T*: %v", ErrParentDecode, err)
		}
		peels += parent.PeelCount()
		if len(diff.Removed) != 0 {
			return nil, fmt.Errorf("%w: T*: unexpected negative keys", ErrParentDecode)
		}
		for _, e := range diff.Added {
			cs, err := plan.starCodec.decode(e)
			if err != nil {
				return nil, fmt.Errorf("%w: T*: %v", ErrChildDecode, err)
			}
			h := setutil.Hash(chs, cs)
			if _, done := recovered[h]; done {
				continue
			}
			recovered[h] = cs
			delete(outstanding, h)
			dA = append(dA, cs)
		}
	}

	if len(outstanding) != 0 {
		return nil, fmt.Errorf("%w: %d child sets unrecovered", ErrChildDecode, len(outstanding))
	}
	final := assembleHashed(bob, bobHashes, dA, removedHashes)
	if parentHash(coins, final) != wantParent {
		return nil, ErrVerify
	}
	return &Result{Recovered: final, Added: sortSets(dA), Removed: sortSets(dB), PeelIterations: peels + rec.peels}, nil
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
