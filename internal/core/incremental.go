package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setutil"
)

// IncrementalDigest maintains a one-round reconciliation digest under child
// set insertions and removals, so a live system can keep its digest current
// in O(update) instead of rebuilding over the whole parent set per sync.
// IBLT linearity makes this exact: inserting/deleting an encoding into every
// table is precisely what a from-scratch build would have done, so SnapshotMsg
// is byte-identical to AliceMsg over the current parent set.
//
// The only non-linear component is the whole-parent verification hash, which
// sorts child hashes; the builder tracks the multiset of child hashes and
// re-derives that hash in O(s log s) at snapshot time.
type IncrementalDigest struct {
	plan plan
	// encs holds one reusable encoder per table, so updates encode each child
	// set without per-call table/buffer allocations.
	encs []setEncoder

	// chSeed/verSeed/parSeed are the hash-role seeds hoisted out of the
	// per-update path (Coins.Seed hashes its label per call).
	chSeed  uint64
	verSeed uint64
	parSeed uint64

	tables []*iblt.Table // one per plan table
	// hashes tracks child identity (dedup); vHashes tracks the
	// verification-role hashes that HashSetOfSets combines.
	hashes  map[uint64]int
	vHashes map[uint64]int
	count   int
}

// NewIncrementalDigest creates an empty builder for the given one-round
// protocol digest. Parameters mirror AliceMsg.
func NewIncrementalDigest(kind DigestKind, coins hashing.Coins, p Params, d, dHat int) (*IncrementalDigest, error) {
	b := &IncrementalDigest{
		chSeed:  childSeed(coins),
		parSeed: coins.Seed(parentVerifyLabel, 0),
		hashes:  map[uint64]int{},
		vHashes: map[uint64]int{},
	}
	b.verSeed = b.parSeed ^ 0xa5a5a5a5a5a5a5a5
	if err := b.plan.init(kind, coins, p, d, dHat); err != nil {
		return nil, err
	}
	for i := range b.plan.tables {
		ts := &b.plan.tables[i]
		b.encs = append(b.encs, ts.newEncoder())
		b.tables = append(b.tables, iblt.New(ts.cells, ts.width, 0, ts.seed))
	}
	return b, nil
}

// Add inserts a child set (must be canonical and within bounds; must not
// already be present — parents are sets). A child the shape cannot hold — one
// past S, more than H elements, an element at or above U — is refused as
// ErrInvalidInstance: the tables' counts, keys and key sums are sized by it.
func (b *IncrementalDigest) Add(cs []uint64) error {
	if err := b.checkChild(cs, b.count+1); err != nil {
		return err
	}
	h := setutil.Hash(b.chSeed, cs)
	if b.hashes[h] > 0 {
		return fmt.Errorf("%w: child set already present", ErrInvalidInstance)
	}
	b.update(cs, true)
	b.hashes[h]++
	b.vHashes[b.verifyHash(cs)]++
	b.count++
	return nil
}

// verifyHash mirrors setutil.HashSetOfSets's per-child hashing role.
func (b *IncrementalDigest) verifyHash(cs []uint64) uint64 {
	return setutil.Hash(b.verSeed, cs)
}

// Remove deletes a previously added child set.
func (b *IncrementalDigest) Remove(cs []uint64) error {
	if err := b.checkChild(cs, b.count); err != nil {
		return err
	}
	h := setutil.Hash(b.chSeed, cs)
	if b.hashes[h] == 0 {
		return fmt.Errorf("%w: child set not present", ErrInvalidInstance)
	}
	b.update(cs, false)
	b.hashes[h]--
	if b.hashes[h] == 0 {
		delete(b.hashes, h)
	}
	vh := b.verifyHash(cs)
	b.vHashes[vh]--
	if b.vHashes[vh] == 0 {
		delete(b.vHashes, vh)
	}
	b.count--
	return nil
}

// Len returns the current number of child sets.
func (b *IncrementalDigest) Len() int { return b.count }

// checkChild refuses a child set that is not canonical, or that the shape
// cannot hold as one of children child sets.
func (b *IncrementalDigest) checkChild(cs []uint64, children int) error {
	if !setutil.IsCanonical(cs) {
		return fmt.Errorf("%w: child not canonical", ErrInvalidInstance)
	}
	var top uint64
	if len(cs) > 0 {
		top = cs[len(cs)-1]
	}
	return b.plan.p.fits(children, len(cs), top)
}

func (b *IncrementalDigest) update(cs []uint64, insert bool) {
	for i, t := range b.tables {
		enc := b.encs[i].encode(cs)
		if insert {
			t.Insert(enc)
		} else {
			t.Delete(enc)
		}
	}
}

// parentHashNow re-derives the whole-parent verification hash from the
// tracked verification-role hash multiset, matching setutil.HashSetOfSets
// over the current parent set (which sorts per-child hashes then chains).
func (b *IncrementalDigest) parentHashNow() uint64 {
	hs := make([]uint64, 0, b.count)
	for vh, c := range b.vHashes {
		for i := 0; i < c; i++ {
			hs = append(hs, vh)
		}
	}
	slices.Sort(hs)
	return hashing.HashUint64s(b.parSeed, hs)
}

// SnapshotMsg emits the current one-round payload, byte-identical to
// AliceMsg(kind, coins, currentParent, p, d, dHat) — the form split-party
// servers ship under the protocol's transport label.
func (b *IncrementalDigest) SnapshotMsg() []byte {
	body := make([]byte, 0, b.plan.msgSize())
	for _, t := range b.tables {
		body = t.AppendCells(body, b.plan.countBytes, t.Width())
	}
	return binary.LittleEndian.AppendUint64(body, b.parentHashNow())
}
