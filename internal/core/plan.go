package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// §3.2 grows one construction through three theorems: a parent IBLT keyed by
// whole child sets (3.3), a parent IBLT keyed by (child IBLT, hash) pairs
// (3.5), and a cascade of the latter (3.7). A child set has two keys: the
// whole set, O(min(h log u, u)) bits, and the pair, O(c log u) bits for a
// c-cell child IBLT. A table takes the narrower (addChild), and a cascade
// ends at its first whole-set table, which leaves nothing outstanding. So
// where the pair is no narrower, nested and cascade are Theorem 3.3's table,
// and whenever d ≥ h the cascade's last level is such a table, in the place
// of the paper's T*.
// A plan is that construction as data — the ordered parent tables both
// parties derive from (kind, coins, p, d, d̂), the message layout and the
// transport label — and everything else in the package (Alice's build, Bob's
// decode, Bob's sketch, the live digest, the size and bound arithmetic) is a
// loop over plan.tables. plan.init is the only place that asks which theorem
// it is serving, so it is where a cell rule, a coin label or a key codec
// changes; it and the child codec are the only places that choose a cell's
// field widths.

// tableSpec is one parent table of a plan: its shape, and how a child set
// becomes one of its fixed-width keys.
type tableSpec struct {
	cells int
	seed  uint64
	width int        // key width: naive.width or child.width
	full  bool       // keys are whole child sets (naive); otherwise (child IBLT, hash) pairs (child)
	naive naiveCodec // full
	child childCodec // !full
}

// plan fixes every size and seed both parties derive from (kind, coins, p, d,
// d̂). It holds no reference to either party's data and is read-only after
// init, so a BobSketch's plan serves concurrent decodes.
type plan struct {
	kind       DigestKind
	coins      hashing.Coins
	p          Params
	d, dHat    int
	tables     []tableSpec
	countBytes int    // every parent table's count width: Alice's tables hold at most S keys
	sizedByHat bool   // table sizes depend on d̂ (Algorithm 2 derives its own from d)
	label      string // the transport label the in-process protocol sends the message under
}

// init derives the plan in place, keeping the table slice of an earlier plan
// when it is long enough. Every entry point resolves its shape here: p is
// normalized, d raised to at least 1, and d̂ ≤ 0 defaulted to min(d, s).
func (pl *plan) init(kind DigestKind, coins hashing.Coins, p Params, d, dHat int) error {
	p, err := p.normalized()
	if err != nil {
		return err
	}
	d = max(d, 1)
	if dHat <= 0 {
		dHat = DHat(d, p.S)
	}
	*pl = plan{kind: kind, coins: coins, p: p, d: d, dHat: dHat, tables: pl.tables[:0], countBytes: countBytesFor(p.S)}
	switch kind {
	case DigestNaive:
		// Theorem 3.3: the table holds the full symmetric difference of
		// encodings, up to 2·d̂.
		pl.label, pl.sizedByHat = "naive-iblt", true
		pl.addFull(iblt.CellsFor(2*dHat), coins.Seed("naive/parent", 0))
	case DigestNested:
		// Algorithm 1: |EA ⊕ EB| ≤ 2·d̂ keys, each an O(d)-cell child IBLT.
		pl.label, pl.sizedByHat = "nested-iblt", true
		pl.addChild(iblt.CellsFor(2*dHat), coins.Seed("nested/parent", 0),
			newChildCodec(coins, "nested/child", 0, iblt.CellsFor(d), p))
	case DigestCascade:
		// Algorithm 2: t = ⌈log₂ min(d, h)⌉ levels (at least one), cut at the
		// first whole-set level.
		pl.label = "cascade-iblts"
		t := max(bits.Len(uint(min(d, p.H)-1)), 1)
		pl.tables = slices.Grow(pl.tables, t)
		hat := DHat(d, p.S) // Algorithm 2 sizes by d alone
		for i := 1; i <= t; i++ {
			// Level 1 must hold the full symmetric difference of encodings
			// (≤ 2·d̂); level i holds Alice's not-yet-recovered child sets,
			// at most (9/4)·d/2^(i-1) in the paper's analysis.
			cells := iblt.CellsFor(2 * hat)
			if i > 1 {
				cells = iblt.CellsFor(max(min((9*d)>>uint(i+1), hat), 2))
			}
			if pl.addChild(cells, coins.Seed("cascade/parent", i),
				newChildCodec(coins, "cascade/child", i, iblt.CellsTight(1<<i), p)) {
				break
			}
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadDigest, kind)
	}
	return nil
}

func (pl *plan) addFull(cells int, seed uint64) {
	c := newNaiveCodec(pl.p)
	pl.tables = append(pl.tables, tableSpec{cells: cells, seed: seed, width: c.width, full: true, naive: c})
}

// addChild adds a table keyed by c's (child IBLT, hash) pairs or, when such a
// key is no narrower than a whole child set, a whole-set table of the same
// cells and seed; it reports the latter.
func (pl *plan) addChild(cells int, seed uint64, c childCodec) (full bool) {
	if c.width >= newNaiveCodec(pl.p).width {
		pl.addFull(cells, seed)
		return true
	}
	pl.tables = append(pl.tables, tableSpec{cells: cells, seed: seed, width: c.width, child: c})
	return false
}

// The message layout: every table's cells (iblt.AppendCells at the plan's
// count width and the table's key width) in plan order, then the parent
// verification hash. The plan fixes every table's shape, so nothing else is
// sent: no table header, length frame, level count or key kind.

// tableBytes is the size of table i's cells in the message; cells 1 and k 1
// give one cell's.
func (pl *plan) tableBytes(i, cells, k int) int {
	return iblt.CellsSize(cells, pl.tables[i].width, k, pl.countBytes)
}

// fitTo sizes a naive plan's one table to a message of n bytes, for a Bob who
// never learns the d̂ Alice sized it by. split still refuses a message that is
// not a whole table of the plan's cells and the parent hash.
func (pl *plan) fitTo(n int) {
	if cells := (n - 8) / pl.tableBytes(0, 1, 1); cells > 0 {
		pl.tables[0].cells = cells
	}
}

// msgSize is the exact length of the plan's message.
func (pl *plan) msgSize() int {
	n := 8
	for i := range pl.tables {
		n += pl.tableBytes(i, pl.tables[i].cells, 0)
	}
	return n
}

// split cuts a message into one table body per plan table (frames) and
// returns the parent hash. It parses no table; a message of any length but
// msgSize is refused, and run classifies the refusal as ErrParentDecode.
func (w *cascadeWork) split(pl *plan, msg []byte) (wantParent uint64, err error) {
	if len(msg) != pl.msgSize() {
		return 0, fmt.Errorf("core: %s message is %d bytes, the plan's is %d", pl.label, len(msg), pl.msgSize())
	}
	off := 0
	for i := range pl.tables {
		n := pl.tableBytes(i, pl.tables[i].cells, 0)
		w.frames = append(w.frames, msg[off:off+n])
		off += n
	}
	return binary.LittleEndian.Uint64(msg[off:]), nil
}

// setEncoder is what a table fill needs of the naive and child encoders.
type setEncoder interface {
	encode(cs []uint64) []byte
}

// newEncoder returns an encoder of the table's keys that owns its scratch,
// for a holder that keeps one per table (the live digest).
func (ts *tableSpec) newEncoder() setEncoder {
	if ts.full {
		return ts.naive.encoder()
	}
	return ts.child.encoder()
}

// encoder retargets the workspace's encoder of the table's key type at the
// table. Nothing is sized here before the caller has checked what it was
// handed against ts.width.
func (w *cascadeWork) encoder(ts *tableSpec) setEncoder {
	if ts.full {
		w.whole.reuse(ts.naive)
		return &w.whole
	}
	w.enc.reuse(ts.child)
	return &w.enc
}

// alice builds the plan's message: every child set's key in every table, each
// filled in the one parent table, then the parent verification hash.
func (w *cascadeWork) alice(pl *plan, alice [][]uint64) []byte {
	// Sized up front: a forest payload is ~1 MB, and growing it by doubling
	// copies it several times over.
	payload := make([]byte, 0, pl.msgSize())
	for i := range pl.tables {
		ts := &pl.tables[i]
		enc := w.encoder(ts)
		w.parent.Reshape(ts.cells, ts.width, 0, ts.seed)
		for _, cs := range alice {
			w.parent.Insert(enc.encode(cs))
		}
		payload = w.parent.AppendCells(payload, pl.countBytes, ts.width)
	}
	return binary.LittleEndian.AppendUint64(payload, w.parentHash(pl.coins, alice))
}

// load loads table i's cells into the parent scratch, shaped by the plan, and
// removes Bob's children from it: all of them for the first table, all except
// D_B after. With a sketch that is one subtraction of its aggregate (plus
// re-inserting D_B, which XOR-cancels to the same state); without, every
// child is re-encoded. The table's encoder is returned for what the caller
// removes next.
func (w *cascadeWork) load(pl *plan, i int, agg *iblt.Table) (setEncoder, error) {
	ts := &pl.tables[i]
	w.parent.Reshape(ts.cells, ts.width, 0, ts.seed)
	if err := w.parent.LoadCells(w.frames[i], pl.countBytes, ts.width); err != nil {
		return nil, fmt.Errorf("%w: table %d: %v", ErrParentDecode, i+1, err)
	}
	enc := w.encoder(ts)
	if agg == nil {
		for j, cs := range w.bob {
			if i == 0 || !w.removed[w.bobHashes[j]] {
				w.parent.Delete(enc.encode(cs))
			}
		}
		return enc, nil
	}
	if err := w.parent.Subtract(agg); err != nil {
		return nil, fmt.Errorf("%w: table %d: %v", ErrParentDecode, i+1, err)
	}
	if i > 0 {
		for j, cs := range w.bob {
			if w.removed[w.bobHashes[j]] {
				w.parent.Insert(enc.encode(cs))
			}
		}
	}
	return enc, nil
}

// run is Bob's side of every plan. For each table: load it, remove what is
// known (Bob's children, and Alice's recovered so far), peel, and recover
// what the key type allows. The first table's negative keys are D_B, Bob's
// differing child sets; a (child IBLT, hash) key is cross-decoded against
// D_B (the O(d̂²) pair loop of Theorem 3.5) and may stay outstanding for a
// later table; a whole-child-set key is taken as is. Anything still
// outstanding after the last table is ErrChildDecode.
func (w *cascadeWork) run(pl *plan, msg []byte, bob [][]uint64, sk *BobSketch) (*Result, error) {
	if sk != nil && !slices.Equal(sk.plan.tables, pl.tables) {
		return nil, fmt.Errorf("%w: Bob sketch tables are not the plan's", ErrBadDigest)
	}
	wantParent, err := w.split(pl, msg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParentDecode, err)
	}
	chs := childSeed(pl.coins)
	w.hashBob(chs, bob, sk)
	if !pl.tables[0].full {
		w.indexBob()
	}
	for i := range pl.tables {
		ts := &pl.tables[i]
		enc, err := w.load(pl, i, sk.table(i))
		if err != nil {
			return nil, err
		}
		for _, r := range w.dA { // Alice's recovered so far: none at the first table
			w.parent.Delete(enc.encode(r))
		}
		if err := w.parent.DecodePacked(&w.diff); err != nil {
			return nil, fmt.Errorf("%w: table %d: %v", ErrParentDecode, i+1, err)
		}
		w.peels += w.parent.PeelCount()
		if i == 0 {
			err = w.differing(ts, chs)
		} else if len(w.diff.Removed) != 0 {
			err = fmt.Errorf("%w: table %d: unexpected negative keys", ErrParentDecode, i+1)
		}
		if err != nil {
			return nil, err
		}
		w.rec.c = ts.child
		for _, e := range w.diff.Added {
			if err := w.recoverKey(ts, chs, e); err != nil {
				return nil, fmt.Errorf("%w: table %d: %v", ErrChildDecode, i+1, err)
			}
		}
	}
	if len(w.outstanding) != 0 {
		return nil, fmt.Errorf("%w: %d child sets unrecovered", ErrChildDecode, len(w.outstanding))
	}
	// Copied out: the Result shares no memory with the workspace or bob.
	res := packResult(w.bob, w.bobHashes, w.removed, w.dA, w.dB)
	if w.parentHash(pl.coins, res.Recovered) != wantParent {
		return nil, ErrVerify
	}
	res.Attempts, res.DUsed, res.PeelIterations = 1, pl.d, w.peels+w.rec.peels
	return res, nil
}

// differing records the first table's negative keys as D_B. A whole child set
// is Bob's as parsed; a (child IBLT, hash) key names one of Bob's children by
// its hash.
func (w *cascadeWork) differing(ts *tableSpec, chs uint64) error {
	for _, e := range w.diff.Removed {
		if ts.full {
			var err error
			if w.rec.merge, err = ts.naive.appendDecode(w.rec.merge[:0], e); err != nil {
				return fmt.Errorf("%w: %v", ErrChildDecode, err)
			}
			w.dB = append(w.dB, w.rec.keep(w.rec.merge))
			w.removed[setutil.Hash(chs, w.rec.merge)] = true
			continue
		}
		h, err := ts.child.encHash(e)
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

// recoverKey takes one of Alice's differing keys: a whole child set is hers
// as parsed; a child IBLT (codec w.rec.c) is cross-decoded against every set
// of D_B and stays outstanding when none verifies.
func (w *cascadeWork) recoverKey(ts *tableSpec, chs uint64, e []byte) error {
	var hA uint64
	var err error
	if ts.full {
		if w.rec.merge, err = ts.naive.appendDecode(w.rec.merge[:0], e); err != nil {
			return err
		}
		hA = setutil.Hash(chs, w.rec.merge)
	} else if hA, err = w.rec.decodeEnc(e); err != nil {
		return err
	}
	if _, done := w.recovered[hA]; done {
		return nil // already recovered from an earlier table
	}
	var r []uint64
	if ts.full {
		r = w.rec.keep(w.rec.merge)
	} else {
		var ok bool
		if r, ok = w.rec.recoverFromCandidates(hA, w.dB); !ok {
			w.outstanding[hA] = true
			return nil
		}
	}
	w.recovered[hA] = r
	delete(w.outstanding, hA)
	w.dA = append(w.dA, r)
	return nil
}

// knownD is the in-process run of a plan, the one body under NaiveKnownD,
// NestedKnownD and CascadeKnownD: Alice builds the message, the channel
// carries it under the plan's label, Bob applies it.
func knownD(kind DigestKind, sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params, d, dHat int) (*Result, error) {
	w := getWork()
	defer putWork(w)
	if err := w.plan.init(kind, coins, p, d, dHat); err != nil {
		return nil, err
	}
	msg := sess.Send(transport.Alice, w.plan.label, w.alice(&w.plan, alice))
	res, err := w.run(&w.plan, msg, bob, nil)
	if err != nil {
		return nil, err
	}
	res.Stats = sess.Stats()
	return res, nil
}
