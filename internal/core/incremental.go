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
// chains the sorted per-child hashes. The builder keeps one sorted word a
// child, that child's verification-role hash: it answers the presence checks
// by binary search, and a snapshot chains it as it stands, so SnapshotMsg is
// O(cells + s) with no sort and one allocation, its body.
type IncrementalDigest struct {
	plan plan
	// encs holds one reusable encoder per table, so updates encode each child
	// set without per-call table/buffer allocations.
	encs []setEncoder

	// verSeed/parSeed are the hash-role seeds hoisted out of the per-update
	// path (Coins.Seed hashes its label per call).
	verSeed uint64
	parSeed uint64

	tables []*iblt.Table // one per plan table
	// vHashes is setutil.Hash(verSeed, cs) of every child set, sorted.
	vHashes []uint64
}

// NewIncrementalDigest creates an empty builder for the given one-round
// protocol digest. Parameters mirror AliceMsg.
func NewIncrementalDigest(kind DigestKind, coins hashing.Coins, p Params, d, dHat int) (*IncrementalDigest, error) {
	b := &IncrementalDigest{parSeed: coins.Seed(parentVerifyLabel, 0)}
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
// Its hash goes in at its sorted place, an O(s) move of words.
func (b *IncrementalDigest) Add(cs []uint64) error {
	if err := b.checkChild(cs, len(b.vHashes)+1); err != nil {
		return err
	}
	vh := setutil.Hash(b.verSeed, cs)
	i, found := slices.BinarySearch(b.vHashes, vh)
	if found {
		return fmt.Errorf("%w: child set already present", ErrInvalidInstance)
	}
	b.update(cs, true)
	b.vHashes = slices.Insert(b.vHashes, i, vh)
	return nil
}

// AddAll adds every child set of parent as Add would, but sorts the hashes
// once, so a first build is O(s log s) where s Adds would be O(s²). A child
// Add would refuse, or one repeated (in parent or already present), refuses
// the whole call before any table changes.
func (b *IncrementalDigest) AddAll(parent [][]uint64) error {
	n := len(b.vHashes) + len(parent)
	hs := append(make([]uint64, 0, n), b.vHashes...)
	for _, cs := range parent {
		if err := b.checkChild(cs, n); err != nil {
			return err
		}
		hs = append(hs, setutil.Hash(b.verSeed, cs))
	}
	slices.Sort(hs)
	for i := 1; i < len(hs); i++ {
		if hs[i] == hs[i-1] {
			return fmt.Errorf("%w: child set already present", ErrInvalidInstance)
		}
	}
	for _, cs := range parent {
		b.update(cs, true)
	}
	b.vHashes = hs
	return nil
}

// Remove deletes a previously added child set.
func (b *IncrementalDigest) Remove(cs []uint64) error {
	if err := b.checkChild(cs, len(b.vHashes)); err != nil {
		return err
	}
	i, found := slices.BinarySearch(b.vHashes, setutil.Hash(b.verSeed, cs))
	if !found {
		return fmt.Errorf("%w: child set not present", ErrInvalidInstance)
	}
	b.update(cs, false)
	b.vHashes = slices.Delete(b.vHashes, i, i+1)
	return nil
}

// Len returns the current number of child sets.
func (b *IncrementalDigest) Len() int { return len(b.vHashes) }

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

// SnapshotMsg emits the current one-round payload, byte-identical to
// AliceMsg(kind, coins, currentParent, p, d, dHat) — the form split-party
// servers ship under the protocol's transport label. Its last word is
// setutil.HashSetOfSets over that parent, chained from vHashes as they stand:
// they are already that hash's sorted per-child list.
func (b *IncrementalDigest) SnapshotMsg() []byte {
	body := make([]byte, 0, b.plan.msgSize())
	for _, t := range b.tables {
		body = t.AppendCells(body, b.plan.countBytes, t.Width())
	}
	return binary.LittleEndian.AppendUint64(body, hashing.HashUint64s(b.parSeed, b.vHashes))
}
