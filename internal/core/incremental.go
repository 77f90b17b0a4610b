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
// table is precisely what a from-scratch build would have done, so Snapshot
// is byte-identical to BuildDigest over the current parent set.
//
// The only non-linear component is the whole-parent verification hash, which
// sorts child hashes; the builder tracks the multiset of child hashes and
// re-derives that hash in O(s log s) at Snapshot time.
type IncrementalDigest struct {
	kind  DigestKind
	coins hashing.Coins
	p     Params
	d     int
	dHat  int

	naiveCodec naiveCodec
	childCdc   childCodec
	plan       *cascadePlan
	// enc holds one reusable encoder per table, so updates encode each child
	// set without per-call table/buffer allocations.
	naiveEnc *naiveEncoder
	childEnc []*childEncoder

	// chSeed/verSeed/parSeed are the hash-role seeds hoisted out of the
	// per-update path (Coins.Seed hashes its label per call).
	chSeed  uint64
	verSeed uint64
	parSeed uint64

	tables []*iblt.Table // naive/nested: [0]; cascade: levels then optional star
	// hashes tracks child identity (dedup); vHashes tracks the
	// verification-role hashes that HashSetOfSets combines.
	hashes  map[uint64]int
	vHashes map[uint64]int
	count   int
}

// NewIncrementalDigest creates an empty builder for the given one-round
// protocol digest. Parameters mirror BuildDigest.
func NewIncrementalDigest(kind DigestKind, coins hashing.Coins, p Params, d, dHat int) (*IncrementalDigest, error) {
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
	b := &IncrementalDigest{
		kind:    kind,
		coins:   coins,
		p:       p,
		d:       d,
		dHat:    dHat,
		chSeed:  childSeed(coins),
		parSeed: coins.Seed(parentVerifyLabel, 0),
		hashes:  map[uint64]int{},
		vHashes: map[uint64]int{},
	}
	b.verSeed = b.parSeed ^ 0xa5a5a5a5a5a5a5a5
	switch kind {
	case DigestNaive:
		b.naiveCodec = newNaiveCodec(p)
		b.naiveEnc = b.naiveCodec.encoder()
		b.tables = []*iblt.Table{iblt.New(iblt.CellsFor(2*dHat), b.naiveCodec.width, 0, coins.Seed("naive/parent", 0))}
	case DigestNested:
		b.childCdc = newNestedCodec(coins, p, d)
		b.childEnc = []*childEncoder{b.childCdc.encoder()}
		b.tables = []*iblt.Table{iblt.New(iblt.CellsFor(2*dHat), b.childCdc.width, 0, coins.Seed("nested/parent", 0))}
	case DigestCascade:
		b.plan = newCascadePlan(coins, p, d)
		for i := 1; i <= b.plan.t; i++ {
			b.childEnc = append(b.childEnc, b.plan.level[i-1].encoder())
			b.tables = append(b.tables, iblt.New(b.plan.parentCells(i), b.plan.level[i-1].width, 0, b.plan.parentSeed(i)))
		}
		if b.plan.star {
			b.naiveEnc = b.plan.starCodec.encoder()
			b.tables = append(b.tables, iblt.New(b.plan.starCells(), b.plan.starCodec.width, 0, b.plan.starSeed()))
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadDigest, kind)
	}
	return b, nil
}

// Add inserts a child set (must be canonical and within bounds; must not
// already be present — parents are sets).
func (b *IncrementalDigest) Add(cs []uint64) error {
	if err := b.checkChild(cs); err != nil {
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
	if err := b.checkChild(cs); err != nil {
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

func (b *IncrementalDigest) checkChild(cs []uint64) error {
	if len(cs) > b.p.H {
		return fmt.Errorf("%w: child has %d elements, H=%d", ErrInvalidInstance, len(cs), b.p.H)
	}
	if !setutil.IsCanonical(cs) {
		return fmt.Errorf("%w: child not canonical", ErrInvalidInstance)
	}
	for _, x := range cs {
		if x >= b.p.U {
			return fmt.Errorf("%w: element %d outside universe", ErrInvalidInstance, x)
		}
	}
	return nil
}

func (b *IncrementalDigest) update(cs []uint64, insert bool) {
	apply := func(t *iblt.Table, enc []byte) {
		if insert {
			t.Insert(enc)
		} else {
			t.Delete(enc)
		}
	}
	switch b.kind {
	case DigestNaive:
		apply(b.tables[0], b.naiveEnc.encode(cs))
	case DigestNested:
		apply(b.tables[0], b.childEnc[0].encode(cs))
	case DigestCascade:
		for i := 1; i <= b.plan.t; i++ {
			apply(b.tables[i-1], b.childEnc[i-1].encode(cs))
		}
		if b.plan.star {
			apply(b.tables[len(b.tables)-1], b.naiveEnc.encode(cs))
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

// SnapshotMsg emits the current raw one-round payload, byte-identical to
// AliceMsg(kind, coins, currentParent, p, d, dHat) — the form split-party
// servers ship under the protocol's transport label. Snapshot adds the
// self-describing digest header around exactly these bytes.
func (b *IncrementalDigest) SnapshotMsg() []byte {
	var body []byte
	switch b.kind {
	case DigestNaive, DigestNested:
		body = append(b.tables[0].Marshal(), u64le(b.parentHashNow())...)
	case DigestCascade:
		body = make([]byte, 0, b.plan.msgSize())
		body = binary.LittleEndian.AppendUint32(body, uint32(b.plan.t))
		for i := 0; i < b.plan.t; i++ {
			body = appendFramedTable(body, b.tables[i])
		}
		if b.plan.star {
			body = append(body, 1)
			body = appendFramedTable(body, b.tables[len(b.tables)-1])
		} else {
			body = append(body, 0)
		}
		body = append(body, u64le(b.parentHashNow())...)
	}
	return body
}

// Snapshot emits the current digest, byte-identical to
// BuildDigest(kind, coins, currentParent, p, d, dHat).
func (b *IncrementalDigest) Snapshot() []byte {
	hdr := make([]byte, 4+1+8+8+8+8+8)
	copy(hdr, digestMagic[:])
	hdr[4] = byte(b.kind)
	binary.LittleEndian.PutUint64(hdr[5:], uint64(b.p.S))
	binary.LittleEndian.PutUint64(hdr[13:], uint64(b.p.H))
	binary.LittleEndian.PutUint64(hdr[21:], b.p.U)
	binary.LittleEndian.PutUint64(hdr[29:], uint64(b.d))
	binary.LittleEndian.PutUint64(hdr[37:], uint64(b.dHat))
	return append(hdr, b.SnapshotMsg()...)
}
