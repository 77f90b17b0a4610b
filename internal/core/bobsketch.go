package core

import (
	"fmt"
	"slices"
	"unsafe"

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
// cache. The cascade levels ≥ 2 delete "all except D_B": the cached
// path subtracts the full aggregate and re-inserts the (few) D_B encodings,
// which XOR-cancels to the identical table state.
//
// The same linearity gives a sketch a successor: the aggregates of a parent
// that differs in a few children are the old aggregates minus the encodings
// of the children that left plus those of the children that came
// (NextBobSketch), cell for cell what a build over the new parent produces.
// That takes the old children's contents, so a sketch whose parent is known
// to change retains it. One built with no predecessor does not: most parents
// never change, and the copy would double what their holder keeps for them.
type BobSketch struct {
	plan      plan          // the shape the aggregates were built for, derived once; they are only valid under its coins
	tables    []*iblt.Table // one aggregate of enc(cs) over Bob's children per plan table
	bobHashes []uint64      // per-child-set hash under childSeed(coins), in parent order
	bob       [][]uint64    // the sketch's own copy of the parent set the aggregates cover; nil when not retained
}

// NewBobSketch precomputes Bob's aggregate encodings of parent set bob for
// the given protocol shape. The sketch is read-only afterwards and safe for
// concurrent ApplyMsgCached calls; bob must be canonical.
func NewBobSketch(kind DigestKind, coins hashing.Coins, bob [][]uint64, p Params, d, dHat int) (*BobSketch, error) {
	sk, _, err := NextBobSketch(nil, kind, coins, bob, p, d, dHat)
	return sk, err
}

// NextBobSketch returns the sketch of parent set bob under (kind, coins, p,
// d, dHat), as the successor of prev: the sketch of another parent that this
// one replaces. When prev was built for the same shape under the same coins
// and retains its parent, the two parents are diffed by child hash (as
// multisets), prev's aggregates are copied, and only the encodings of the
// children one parent holds and the other does not are deleted and inserted —
// O(s) hashing plus O(|Δ|·levels) encodes where a build costs O(s·levels).
// delta is |Δ|, the number of encodings patched per table. Otherwise (prev
// nil, of another shape or other coins, without its parent, or differing in
// at least as many children as bob holds) the sketch is built from scratch
// and delta is -1. Either way the result equals NewBobSketch(bob) cell for
// cell, and prev is not modified.
//
// A successor (prev non-nil) retains a copy of bob, packed in one arena, so
// that its own successor can be patched; Parent returns it. bob itself is
// read only during the call.
func NextBobSketch(prev *BobSketch, kind DigestKind, coins hashing.Coins, bob [][]uint64, p Params, d, dHat int) (sk *BobSketch, delta int, err error) {
	w := getWork()
	defer putWork(w)
	// The workspace's plan resolves the shape prev is checked against.
	if err := w.plan.init(kind, coins, p, d, dHat); err != nil {
		return nil, 0, err
	}
	sk = &BobSketch{}
	chs := childSeed(coins)
	sk.bobHashes = make([]uint64, len(bob))
	for i, cs := range bob {
		sk.bobHashes[i] = setutil.Hash(chs, cs)
	}
	if prev != nil {
		sk.bob = setutil.CanonicalSets(bob) // bob is canonical: a packed copy
		pl := &w.plan
		if prev.bob != nil && prev.check(kind, coins, pl.p, pl.d, pl.dHat) == nil {
			gone, come := w.diffParents(prev, sk)
			if delta = len(gone) + len(come); delta < len(bob) {
				sk.plan = prev.plan // read-only: the table list is shared
				sk.tables = iblt.CloneAll(prev.tables)
				sk.patch(w, gone, come)
				return sk, delta, nil
			}
		}
	}
	sk.plan = w.plan
	sk.plan.tables = slices.Clone(w.plan.tables)
	// A build lays every aggregate table in one arena, as CloneAll lays a
	// successor's.
	w.shapes = w.shapes[:0]
	for i := range sk.plan.tables {
		ts := &sk.plan.tables[i]
		w.shapes = append(w.shapes, iblt.Shape{Cells: ts.cells, Width: ts.width, Seed: ts.seed})
	}
	sk.tables = iblt.NewAll(w.shapes)
	sk.patch(w, nil, bob)
	return sk, -1, nil
}

// table is the sketch's i-th aggregate, nil for a nil sketch: the plain path.
func (sk *BobSketch) table(i int) *iblt.Table {
	if sk == nil {
		return nil
	}
	return sk.tables[i]
}

// patch deletes the encodings of gone from every aggregate table and inserts
// those of come, on the workspace's encoders.
func (sk *BobSketch) patch(w *cascadeWork, gone, come [][]uint64) {
	for i, t := range sk.tables {
		e := w.encoder(&sk.plan.tables[i])
		for _, cs := range gone {
			t.Delete(e.encode(cs))
		}
		for _, cs := range come {
			t.Insert(e.encode(cs))
		}
	}
}

// Parent is the copy of its parent set a successor retains, nil for a sketch
// built with no predecessor. It is read-only. A caller that decodes against it
// instead of an equal parent of its own lets Holds answer from the slice
// itself rather than by hashing every child.
func (sk *BobSketch) Parent() [][]uint64 { return sk.bob }

// Holds reports whether bob is the parent set the sketch covers: the same
// child sets (by hash) in the same order, bobHashes being indexed by it.
func (sk *BobSketch) Holds(bob [][]uint64) bool {
	if len(bob) != len(sk.bobHashes) {
		return false
	}
	if len(bob) > 0 && len(sk.bob) > 0 && &bob[0] == &sk.bob[0] {
		return true // the very slice the sketch retains
	}
	chs := childSeed(sk.plan.coins)
	for i, cs := range bob {
		if setutil.Hash(chs, cs) != sk.bobHashes[i] {
			return false
		}
	}
	return true
}

// SizeBytes reports the sketch's memory footprint for cache accounting: the
// sketch and its plan, the aggregate tables with their headers, the child
// hashes and a retained parent set. A successor patched from its predecessor
// shares that one's table specs and charges them again: a safe over-charge of
// one tableSpec a table.
func (sk *BobSketch) SizeBytes() int64 {
	n := int(unsafe.Sizeof(*sk)+unsafe.Sizeof(tableSpec{})*uintptr(cap(sk.plan.tables))) +
		8*(cap(sk.tables)+cap(sk.bobHashes)) + 24*cap(sk.bob) + 8*setutil.TotalSize(sk.bob)
	for _, t := range sk.tables {
		n += t.HeapBytes()
	}
	return int64(n)
}

// check verifies the sketch was built for exactly this decode shape; a
// mismatched sketch would silently corrupt the subtraction, so it is an error,
// never a fallback.
func (sk *BobSketch) check(kind DigestKind, coins hashing.Coins, p Params, d, dHat int) error {
	pl := &sk.plan
	if pl.kind != kind || pl.p != p || pl.d != d || pl.coins != coins || pl.sizedByHat && pl.dHat != dHat {
		return fmt.Errorf("%w: Bob sketch shape mismatch", ErrBadDigest)
	}
	return nil
}

// ApplyMsgCached is ApplyMsg with Bob's side served from a precomputed
// sketch: parent-level subtractions reuse sk's aggregates instead of
// re-encoding every child set. sk must have been built (or derived) under the
// same (kind, coins, bob, p, d, dHat) — a sketch of another shape, of other
// coins or of another parent set is refused as ErrBadDigest before anything
// is subtracted; nil sk falls back to the plain path. The recovered
// difference is identical either way.
func ApplyMsgCached(kind DigestKind, coins hashing.Coins, body []byte, bob [][]uint64, p Params, d, dHat int, sk *BobSketch) (*Result, error) {
	if sk == nil {
		return ApplyMsg(kind, coins, body, bob, p, d, dHat)
	}
	if d < 1 {
		d = 1
	}
	if dHat <= 0 {
		dHat = DHat(d, p.S)
	}
	np, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if err := sk.check(kind, coins, np, d, dHat); err != nil {
		return nil, err
	}
	if !sk.Holds(bob) {
		return nil, fmt.Errorf("%w: Bob sketch built for another parent set", ErrBadDigest)
	}
	w := getWork()
	defer putWork(w)
	return w.run(&sk.plan, body, bob, sk)
}
