package core

import (
	"fmt"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setutil"
)

// BobSketch caches Bob's side of a one-round decode. IBLTs are linear:
// deleting every one of Bob's child encodings from a received parent table is
// byte-identical to subtracting one aggregate table built by inserting them
// all. A party that repeatedly acts as Bob for the same parent set (a hosting
// server, a fan-in client) can therefore build these aggregates once per
// (parent set, coins, shape) and subtract them per session instead of
// re-encoding every child set — the decode-side twin of the Alice encoding
// cache. The cascade levels ≥ 2 and T* delete "all except D_B": the cached
// path subtracts the full aggregate and re-inserts the (few) D_B encodings,
// which XOR-cancels to the identical table state.
type BobSketch struct {
	kind DigestKind
	p    Params
	d    int
	dHat int
	seed uint64 // coins.Master(): aggregates are only valid under these coins

	plan      *cascadePlan  // DigestCascade: the sizes and seeds of this shape, derived once
	tables    []*iblt.Table // per parent level, aggregate of enc(cs) for all of Bob's children
	star      *iblt.Table   // cascade T* aggregate (nil when the plan has no star)
	bobHashes []uint64      // per-child-set hash under childSeed(coins), aligned with the parent set
}

// NewBobSketch precomputes Bob's aggregate encodings of parent set bob for
// the given protocol shape. The sketch is read-only afterwards and safe for
// concurrent ApplyMsgCached calls; bob must stay unmodified (and canonical)
// for as long as the sketch is used.
func NewBobSketch(kind DigestKind, coins hashing.Coins, bob [][]uint64, p Params, d, dHat int) (*BobSketch, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if d < 1 {
		d = 1
	}
	if dHat <= 0 {
		dHat = DHat(d, p.S)
	}
	sk := &BobSketch{kind: kind, p: p, d: d, dHat: dHat, seed: coins.Master()}
	chs := childSeed(coins)
	sk.bobHashes = make([]uint64, len(bob))
	for i, cs := range bob {
		sk.bobHashes[i] = setutil.Hash(chs, cs)
	}
	switch kind {
	case DigestNaive:
		codec := newNaiveCodec(p)
		enc := codec.encoder()
		t := iblt.New(iblt.CellsFor(2*dHat), codec.width, 0, coins.Seed("naive/parent", 0))
		for _, cs := range bob {
			t.Insert(enc.encode(cs))
		}
		sk.tables = []*iblt.Table{t}
	case DigestNested:
		codec := newNestedCodec(coins, p, d)
		enc := codec.encoder()
		t := iblt.New(iblt.CellsFor(2*dHat), codec.width, 0, coins.Seed("nested/parent", 0))
		for _, cs := range bob {
			t.Insert(enc.encode(cs))
		}
		sk.tables = []*iblt.Table{t}
	case DigestCascade:
		plan := newCascadePlan(coins, p, d)
		sk.plan = plan
		enc := plan.level[0].encoder()
		for i := 1; i <= plan.t; i++ {
			enc.reuse(plan.level[i-1])
			ti := iblt.New(plan.parentCells(i), plan.level[i-1].width, 0, plan.parentSeed(i))
			for _, cs := range bob {
				ti.Insert(enc.encode(cs))
			}
			sk.tables = append(sk.tables, ti)
		}
		if plan.star {
			starEnc := plan.starCodec.encoder()
			tStar := iblt.New(plan.starCells(), plan.starCodec.width, 0, plan.starSeed())
			for _, cs := range bob {
				tStar.Insert(starEnc.encode(cs))
			}
			sk.star = tStar
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadDigest, kind)
	}
	return sk, nil
}

// SizeBytes reports the sketch's approximate memory footprint for cache
// accounting.
func (sk *BobSketch) SizeBytes() int64 {
	n := int64(8 * len(sk.bobHashes))
	for _, t := range sk.tables {
		n += int64(t.SerializedSize())
	}
	if sk.star != nil {
		n += int64(sk.star.SerializedSize())
	}
	return n
}

// check verifies the sketch was built for exactly this decode shape; a
// mismatched sketch would silently corrupt the subtraction, so it is an error,
// never a fallback.
func (sk *BobSketch) check(kind DigestKind, coins hashing.Coins, p Params, d, dHat int) error {
	if sk.kind != kind || sk.p != p || sk.d != d || sk.seed != coins.Master() {
		return fmt.Errorf("%w: Bob sketch shape mismatch", ErrBadDigest)
	}
	if kind != DigestCascade && sk.dHat != dHat {
		return fmt.Errorf("%w: Bob sketch shape mismatch", ErrBadDigest)
	}
	return nil
}

// ApplyMsgCached is ApplyMsg with Bob's side served from a precomputed
// sketch: parent-level subtractions reuse sk's aggregates instead of
// re-encoding every child set. sk must have been built by NewBobSketch under
// the same (kind, coins, bob, p, d, dHat); nil sk falls back to the plain
// path. The recovered difference is identical either way.
func ApplyMsgCached(kind DigestKind, coins hashing.Coins, body []byte, bob [][]uint64, p Params, d, dHat int, sk *BobSketch) (*Result, error) {
	if d < 1 {
		d = 1
	}
	if dHat <= 0 {
		dHat = DHat(d, p.S)
	}
	if sk == nil {
		return ApplyMsg(kind, coins, body, bob, p, d, dHat)
	}
	np, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if err := sk.check(kind, coins, np, d, dHat); err != nil {
		return nil, err
	}
	if len(bob) != len(sk.bobHashes) {
		return nil, fmt.Errorf("%w: Bob sketch parent size mismatch", ErrBadDigest)
	}
	var res *Result
	switch kind {
	case DigestNaive:
		res, err = naiveBob(coins, body, bob, newNaiveCodec(np), sk)
	case DigestNested:
		res, err = nestedBob(coins, body, bob, newNestedCodec(coins, np, d), sk)
	case DigestCascade:
		res, err = cascadeBob(coins, sk.plan, body, bob, sk)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadDigest, kind)
	}
	if err != nil {
		return nil, err
	}
	res.Attempts = 1
	res.DUsed = d
	return res, nil
}
