package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/matching"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Depth-3 reconciliation: sets of sets of sets. The paper leaves this as
// future work ("we could extend this recursive use of IBLTs further —
// creating IBLTs of structures representing sets of sets as IBLTs of IBLTs
// — to reconcile sets of sets of sets", §3.2); this file implements that
// recursion one level deep.
//
// Terminology: a grandparent set contains up to g groups; each group is a
// parent set of up to s child sets; each child set has up to h elements.
// Differences d3 are counted by the natural recursive matching: groups match
// by minimum parent-set distance (itself a minimum child matching).
//
// Encoding recursion, exactly as the paper sketches:
//
//	child set          -> child IBLT (elements)          ‖ child hash
//	group (set of sets) -> group IBLT (child encodings)  ‖ group hash
//	grandparent        -> top IBLT (group encodings)
//
// Bob peels the top IBLT to find differing group encodings, cross-decodes
// each of Alice's group IBLTs against his own differing groups to recover
// differing child encodings, then cross-decodes those child IBLTs against
// the matched group's child sets.

// Params3 describes a depth-3 instance.
type Params3 struct {
	// G bounds the number of groups per grandparent.
	G int
	// S bounds child sets per group.
	S int
	// H bounds elements per child set.
	H int
	// U bounds the universe (0 = 2^60 range).
	U uint64
}

func (p Params3) normalized() (Params3, error) {
	if p.U == 0 {
		p.U = setutil.MaxElement + 1
	}
	if p.G <= 0 || p.S <= 0 || p.H <= 0 {
		return p, fmt.Errorf("%w: Params3 requires positive G, S, H", ErrInvalidInstance)
	}
	return p, nil
}

// Bounds3 carries the difference bounds for the three levels.
type Bounds3 struct {
	// D is the total element-level difference bound across all child sets.
	D int
	// DChild bounds differing child sets within any matched group pair.
	DChild int
	// DGroup bounds the number of differing groups.
	DGroup int
}

func (b Bounds3) normalized(p Params3) Bounds3 {
	if b.D < 1 {
		b.D = 1
	}
	if b.DChild <= 0 {
		b.DChild = DHat(b.D, p.S)
	}
	if b.DGroup <= 0 {
		b.DGroup = DHat(b.D, p.G)
	}
	return b
}

// Result3 reports a depth-3 reconciliation.
type Result3 struct {
	// Recovered is Bob's reconstruction of Alice's grandparent set, groups
	// and children in canonical order.
	Recovered [][][]uint64
	// AddedGroups / RemovedGroups are the group-level diff.
	AddedGroups, RemovedGroups [][][]uint64
	Stats                      transport.Stats
}

// groupCodec encodes a whole group (set of sets) as a fixed-width key: a
// group IBLT over child encodings plus a group hash. Like a child encoding,
// the group table rides as bare cells; its counts are bounded by the group
// size S.
type groupCodec struct {
	child      childCodec
	cells      int
	seed       uint64
	groupHash  uint64
	countBytes int
	width      int
}

func newGroupCodec(coins hashing.Coins, p Params3, childCells, groupCells int) groupCodec {
	child := newChildCodec(coins, "nested3/child", 0, childCells, p.H)
	cb := countBytesFor(p.S)
	return groupCodec{
		child:      child,
		cells:      iblt.RoundCells(groupCells, 0),
		seed:       coins.Seed("nested3/group", 0),
		groupHash:  coins.Seed("nested3/grouphash", 0),
		countBytes: cb,
		width:      iblt.CellsSize(groupCells, child.width, 0, cb) + 8,
	}
}

// hashGroup hashes a group order-invariantly via its child-set hashes.
func (gc groupCodec) hashGroup(group [][]uint64) uint64 {
	hs := make([]uint64, len(group))
	for i, cs := range group {
		hs[i] = gc.child.setHash(cs)
	}
	slices.Sort(hs)
	return hashing.HashUint64s(gc.groupHash, hs)
}

func (gc groupCodec) encode(group [][]uint64) []byte {
	t := iblt.New(gc.cells, gc.child.width, 0, gc.seed)
	enc := gc.child.encoder()
	for _, cs := range group {
		t.Insert(enc.encode(cs))
	}
	buf := t.AppendCells(make([]byte, 0, gc.width), gc.countBytes)
	return binary.LittleEndian.AppendUint64(buf, gc.hashGroup(group))
}

// groupRecoverer carries the scratch for group-level recovery: the group
// diff/candidate tables, the packed child-encoding diff, and a childRecoverer
// for the nested per-child recoveries — reused across every (group encoding,
// candidate) pair of a nested3 decode.
type groupRecoverer struct {
	gc    groupCodec
	ta    iblt.Table // Alice's group table, parsed once per group encoding
	diff  iblt.Table
	tb    iblt.Table
	cdiff iblt.PackedDiff
	enc   *childEncoder
	crec  childRecoverer
}

func newGroupRecoverer(gc groupCodec) *groupRecoverer {
	return &groupRecoverer{gc: gc, enc: gc.child.encoder(), crec: childRecoverer{c: gc.child}}
}

// decodeEnc parses a fixed-width group encoding into the scratch table and
// returns its attached group hash; valid until the next call.
func (r *groupRecoverer) decodeEnc(buf []byte) (uint64, error) {
	if len(buf) != r.gc.width {
		return 0, fmt.Errorf("core: group encoding width %d != %d", len(buf), r.gc.width)
	}
	r.ta.Reshape(r.gc.cells, r.gc.child.width, 0, r.gc.seed)
	if err := r.ta.LoadCells(buf[:len(buf)-8], r.gc.countBytes); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[len(buf)-8:]), nil
}

// recoverGroupAgainst reconstructs Alice's group from the last parsed group
// IBLT (and its hash) using candidate as Bob's counterpart group: subtract
// the candidate's group IBLT, peel to get differing child encodings, recover
// each of Alice's differing children against the candidate's differing
// children, verify the group hash.
func (r *groupRecoverer) recoverGroupAgainst(wantHash uint64, candidate [][]uint64) ([][]uint64, bool) {
	gc := r.gc
	r.diff.CopyFrom(&r.ta)
	r.tb.Reshape(gc.cells, gc.child.width, 0, gc.seed)
	for _, cs := range candidate {
		r.tb.Insert(r.enc.encode(cs))
	}
	if err := r.diff.Subtract(&r.tb); err != nil {
		return nil, false
	}
	if err := r.diff.DecodePacked(&r.cdiff); err != nil {
		return nil, false
	}
	byHash := make(map[uint64][]uint64, len(candidate))
	for _, cs := range candidate {
		byHash[gc.child.setHash(cs)] = cs
	}
	removedHashes := make(map[uint64]bool, len(r.cdiff.Removed))
	var dB [][]uint64
	for _, enc := range r.cdiff.Removed {
		h, err := gc.child.encHash(enc)
		if err != nil {
			return nil, false
		}
		cs, ok := byHash[h]
		if !ok {
			return nil, false
		}
		removedHashes[h] = true
		dB = append(dB, cs)
	}
	var recoveredGroup [][]uint64
	for _, cs := range candidate {
		if !removedHashes[gc.child.setHash(cs)] {
			recoveredGroup = append(recoveredGroup, setutil.Clone(cs))
		}
	}
	for _, enc := range r.cdiff.Added {
		hA, err := r.crec.decodeEnc(enc)
		if err != nil {
			return nil, false
		}
		rec, ok := r.crec.recoverFromCandidates(hA, dB)
		if !ok {
			return nil, false
		}
		recoveredGroup = append(recoveredGroup, rec)
	}
	setutil.SortSets(recoveredGroup)
	if gc.hashGroup(recoveredGroup) != wantHash {
		return nil, false
	}
	return recoveredGroup, true
}

// grandparentVerifyLabel names the depth-3 whole-instance hash.
const grandparentVerifyLabel = "nested3/verify"

func grandparentHash(coins hashing.Coins, gp [][][]uint64, gc groupCodec) uint64 {
	hs := make([]uint64, len(gp))
	for i, group := range gp {
		hs[i] = gc.hashGroup(group)
	}
	slices.Sort(hs)
	return hashing.HashUint64s(coins.Seed(grandparentVerifyLabel, 0), hs)
}

// Nested3KnownD reconciles sets of sets of sets in one round: the recursive
// "IBLTs of IBLTs of IBLTs" sketched at the end of §3.2. Communication is
// O(d_group · d_child · d · log u) — one more multiplicative difference
// factor than Algorithm 1, the expected cost of one more level of recursion.
func Nested3KnownD(sess *transport.Session, coins hashing.Coins, alice, bob [][][]uint64, p Params3, b Bounds3) (*Result3, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	b = b.normalized(p)
	gc := newGroupCodec(coins, p, iblt.CellsFor(b.D), iblt.CellsFor(2*b.DChild))

	// --- Alice ---
	top := iblt.New(iblt.CellsFor(2*b.DGroup), gc.width, 0, coins.Seed("nested3/top", 0))
	for _, group := range alice {
		top.Insert(gc.encode(group))
	}
	payload := append(top.Marshal(), u64le(grandparentHash(coins, alice, gc))...)
	msg := sess.Send(transport.Alice, "nested3-iblt", payload)

	// --- Bob ---
	res, err := nested3Bob(coins, gc, msg, bob)
	if err != nil {
		return nil, err
	}
	res.Stats = sess.Stats()
	return res, nil
}

func nested3Bob(coins hashing.Coins, gc groupCodec, msg []byte, bob [][][]uint64) (*Result3, error) {
	if len(msg) < 8 {
		return nil, fmt.Errorf("core: short nested3 message")
	}
	wantHash := binary.LittleEndian.Uint64(msg[len(msg)-8:])
	var top iblt.Table
	if err := top.UnmarshalInto(msg[:len(msg)-8]); err != nil {
		return nil, err
	}
	if top.Width() != gc.width {
		return nil, fmt.Errorf("%w: top key width %d != %d", ErrParentDecode, top.Width(), gc.width)
	}
	for _, group := range bob {
		top.Delete(gc.encode(group))
	}
	var diff iblt.PackedDiff
	if err := top.DecodePacked(&diff); err != nil {
		return nil, fmt.Errorf("%w: top level: %v", ErrParentDecode, err)
	}
	byHash := make(map[uint64][][]uint64, len(bob))
	for _, group := range bob {
		byHash[gc.hashGroup(group)] = group
	}
	removedHashes := make(map[uint64]bool, len(diff.Removed))
	var removedGroups [][][]uint64
	for _, enc := range diff.Removed {
		if len(enc) != gc.width {
			return nil, fmt.Errorf("%w: group encoding width %d != %d", ErrChildDecode, len(enc), gc.width)
		}
		h := binary.LittleEndian.Uint64(enc[len(enc)-8:])
		group, ok := byHash[h]
		if !ok {
			return nil, fmt.Errorf("%w: removed group hash unknown", ErrChildDecode)
		}
		removedHashes[h] = true
		removedGroups = append(removedGroups, group)
	}
	grec := newGroupRecoverer(gc)
	var addedGroups [][][]uint64
	for _, enc := range diff.Added {
		hA, err := grec.decodeEnc(enc)
		if err != nil {
			return nil, fmt.Errorf("%w: group: %v", ErrChildDecode, err)
		}
		var rec [][]uint64
		ok := false
		for _, cand := range removedGroups {
			if rec, ok = grec.recoverGroupAgainst(hA, cand); ok {
				break
			}
		}
		if !ok {
			// Empty-group fallback (unequal group counts).
			if rec, ok = grec.recoverGroupAgainst(hA, nil); !ok {
				return nil, fmt.Errorf("%w: no partner decodes group IBLT", ErrChildDecode)
			}
		}
		addedGroups = append(addedGroups, rec)
	}
	// Assemble.
	var out [][][]uint64
	for _, group := range bob {
		if !removedHashes[gc.hashGroup(group)] {
			out = append(out, sortSets(group))
		}
	}
	for _, group := range addedGroups {
		out = append(out, sortSets(group))
	}
	slices.SortFunc(out, compareGroups)
	if grandparentHash(coins, out, gc) != wantHash {
		return nil, ErrVerify
	}
	return &Result3{
		Recovered:     out,
		AddedGroups:   addedGroups,
		RemovedGroups: removedGroups,
	}, nil
}

// compareGroups is the lexicographic order on groups of canonical sets.
func compareGroups(a, b [][]uint64) int {
	return slices.CompareFunc(a, b, slices.Compare[[]uint64])
}

// Distance3 computes the recursive ground-truth difference between two
// grandparent sets: minimum-cost group matching where the cost of matching
// two groups is their sets-of-sets distance (unmatched groups pair with the
// empty group).
func Distance3(a, b [][][]uint64) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	cost := make([][]int64, n)
	for i := range cost {
		cost[i] = make([]int64, n)
		for j := range cost[i] {
			var ga, gb [][]uint64
			if i < len(a) {
				ga = a[i]
			}
			if j < len(b) {
				gb = b[j]
			}
			cost[i][j] = int64(Distance(ga, gb))
		}
	}
	_, total := matching.MinCost(cost)
	return int(total)
}

// Equal3 reports whether two grandparent sets hold the same groups.
func Equal3(a, b [][][]uint64) bool {
	return Distance3(a, b) == 0
}
