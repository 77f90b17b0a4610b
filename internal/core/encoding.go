package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setutil"
)

// Child-set encodings. The protocols need fixed-width byte representations
// of child sets so they can serve as vector keys inside parent IBLTs:
//
//   - naiveEncoding: the full child set, either as a length-prefixed element
//     list (h·log u bits) or as a universe bitmap (u bits), whichever is
//     smaller — giving the naive protocol its O(d̂ · min(h log u, u)) bound
//     (Theorem 3.3).
//   - childEncoding: a c-cell child IBLT plus the child set's
//     pairwise-independent hash (Algorithm 1's "(child IBLT, hash) pair").

// naiveCodec encodes child sets at a fixed width chosen from Params. A list
// is a count of the bytes h needs, then each element in the bytes u needs
// (sumBytesFor), both little-endian, then zeros to the width.
type naiveCodec struct {
	p          Params
	bitmap     bool
	countBytes int // list: the length prefix
	elemBytes  int // list: each element
	width      int
}

func newNaiveCodec(p Params) naiveCodec {
	c := naiveCodec{p: p, countBytes: countBytesFor(p.H), elemBytes: sumBytesFor(p.U)}
	c.width = c.countBytes + c.elemBytes*p.H
	if bitmapWidth := int((p.U + 7) / 8); p.U > 0 && bitmapWidth < c.width {
		c.bitmap, c.width = true, bitmapWidth
	}
	return c
}

func (c naiveCodec) encode(cs []uint64) []byte {
	return c.encodeInto(make([]byte, c.width), cs)
}

// encodeInto writes the encoding into buf (len must be c.width; contents are
// overwritten), so encode loops can reuse one buffer.
func (c naiveCodec) encodeInto(buf []byte, cs []uint64) []byte {
	clear(buf)
	if c.bitmap {
		for _, x := range cs {
			buf[x/8] |= 1 << (x % 8)
		}
		return buf
	}
	putLow(buf[:c.countBytes], uint64(len(cs)))
	for i, x := range cs {
		off := c.countBytes + c.elemBytes*i
		putLow(buf[off:off+c.elemBytes], x)
	}
	return buf
}

// putLow writes the len(dst) low bytes of v into dst, little-endian.
func putLow(dst []byte, v uint64) {
	for i := range dst {
		dst[i] = byte(v >> (8 * i))
	}
}

// getLow reads a little-endian value of len(src) ≤ 8 bytes.
func getLow(src []byte) uint64 {
	var v uint64
	for i, b := range src {
		v |= uint64(b) << (8 * i)
	}
	return v
}

// naiveEncoder amortizes naiveCodec.encode's buffer across a loop; the
// returned slice is valid until the next call.
type naiveEncoder struct {
	c   naiveCodec
	buf []byte
}

func (c naiveCodec) encoder() *naiveEncoder {
	e := &naiveEncoder{}
	e.reuse(c)
	return e
}

// reuse retargets the encoder at another codec, keeping its buffer when it
// is large enough.
func (e *naiveEncoder) reuse(c naiveCodec) {
	e.c = c
	e.buf = slices.Grow(e.buf[:0], c.width)[:c.width]
}

func (e *naiveEncoder) encode(cs []uint64) []byte { return e.c.encodeInto(e.buf, cs) }

// appendDecode appends the child set an encoding stands for to dst, so a
// decode loop parses every recovered encoding into one scratch.
func (c naiveCodec) appendDecode(dst []uint64, buf []byte) ([]uint64, error) {
	if len(buf) != c.width {
		return nil, fmt.Errorf("core: naive encoding width %d != %d", len(buf), c.width)
	}
	if c.bitmap {
		for i, b := range buf {
			for ; b != 0; b &= b - 1 {
				dst = append(dst, uint64(i*8+bits.TrailingZeros8(b)))
			}
		}
		return dst, nil
	}
	n := getLow(buf[:c.countBytes])
	if n > uint64(c.p.H) {
		return nil, fmt.Errorf("core: corrupt naive encoding (n=%d)", n)
	}
	at := len(dst)
	for i := range int(n) {
		off := c.countBytes + c.elemBytes*i
		dst = append(dst, getLow(buf[off:off+c.elemBytes]))
	}
	if !setutil.IsCanonical(dst[at:]) {
		return nil, fmt.Errorf("core: corrupt naive encoding (not canonical)")
	}
	return dst, nil
}

// childCodec builds Algorithm 1/2 style (child IBLT, hash) encodings at a
// fixed cell count. All child IBLTs produced by one codec share seed and
// shape, so any two of them can be subtracted. An encoding is the child
// table's bare cells (iblt.AppendCells) followed by the 8-byte set hash: the
// shape header both parties derive from the plan is not repeated in every
// parent cell, cell counts take only the bytes the instance's child-size
// bound needs, and key sums only the bytes its universe needs.
type childCodec struct {
	cells      int
	seed       uint64
	hash       uint64 // seed of the per-child-set hash
	countBytes int    // per-cell count width, from the child-size bound
	sumBytes   int    // per-cell key-sum width, from the universe
	width      int
}

// newChildCodec plans the encoding of child sets of at most p.H elements from
// [0, p.U), the shape both parties fix before any payload is built.
func newChildCodec(coins hashing.Coins, label string, level, cells int, p Params) childCodec {
	c := childCodec{
		cells:      iblt.RoundCells(cells, 0),
		seed:       coins.Seed(label+"/cells", level),
		hash:       coins.Seed(childHashLabel, 0),
		countBytes: countBytesFor(p.H),
		sumBytes:   sumBytesFor(p.U),
	}
	c.width = iblt.CellsSize(c.cells, c.sumBytes, 0, c.countBytes) + 8
	return c
}

// sumBytesFor is the key-sum width of a table of elements below u: ⌈log₂ u⌉
// bits, which an XOR of such elements cannot exceed (0 is the 2^64 range).
func sumBytesFor(u uint64) int {
	return max((bits.Len64(u-1)+7)/8, 1)
}

// countBytesFor is the count width for a table that only ever holds
// insertions of at most maxKeys keys: no cell count can exceed maxKeys.
func countBytesFor(maxKeys int) int {
	switch {
	case maxKeys < 1<<8:
		return 1
	case maxKeys < 1<<16:
		return 2
	}
	return 4
}

// encode returns the fixed-width encoding of a child set.
func (c childCodec) encode(cs []uint64) []byte {
	return append([]byte(nil), c.encoder().encode(cs)...)
}

// childEncoder amortizes childCodec.encode's allocations across a loop: one
// scratch child IBLT and one output buffer serve every call (encoding a
// parent set is the dominant CPU cost of the one-round protocols, so the
// per-child table/buffer churn matters). The returned slice is valid until
// the next call. reuse retargets the same scratch at another codec, so one
// encoder can serve every cascade level.
type childEncoder struct {
	c   childCodec
	t   iblt.Table
	buf []byte
}

func (c childCodec) encoder() *childEncoder {
	e := &childEncoder{}
	e.reuse(c)
	return e
}

func (e *childEncoder) reuse(c childCodec) {
	e.c = c
	e.t.Reshape(c.cells, iblt.WordWidth, 0, c.seed)
	if cap(e.buf) < c.width {
		e.buf = make([]byte, 0, c.width)
	}
}

func (e *childEncoder) encode(cs []uint64) []byte {
	e.t.Reset()
	for _, x := range cs {
		e.t.InsertUint64(x)
	}
	buf := e.t.AppendCells(e.buf[:0], e.c.countBytes, e.c.sumBytes)
	buf = binary.LittleEndian.AppendUint64(buf, setutil.Hash(e.c.hash, cs))
	e.buf = buf
	return buf
}

// decodeInto splits an encoding into its child IBLT, loaded into t, and hash.
func (c childCodec) decodeInto(t *iblt.Table, buf []byte) (uint64, error) {
	if len(buf) != c.width {
		return 0, fmt.Errorf("core: child encoding width %d != %d", len(buf), c.width)
	}
	t.Reshape(c.cells, iblt.WordWidth, 0, c.seed)
	if err := t.LoadCells(buf[:len(buf)-8], c.countBytes, c.sumBytes); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[len(buf)-8:]), nil
}

// encHash reads the attached set hash off a fixed-width encoding without
// parsing the embedded table (enough for encodings that are only matched by
// hash, e.g. the removed side of a parent decode).
func (c childCodec) encHash(buf []byte) (uint64, error) {
	if len(buf) != c.width {
		return 0, fmt.Errorf("core: child encoding width %d != %d", len(buf), c.width)
	}
	return binary.LittleEndian.Uint64(buf[len(buf)-8:]), nil
}

// childRecoverer carries the scratch for the child-recovery inner loop: the
// receive path parses one child IBLT per differing encoding and tries many
// candidate subtractions against it, so all the tables, peel queues, and diff
// slices live here and are reused across encodings, candidates, and cascade
// levels. Verified recoveries are packed into the kept arena, which outlives
// the per-candidate scratch: they stay valid until forget. The zero value is
// ready after setting c.
type childRecoverer struct {
	c     childCodec
	ta    iblt.Table // Alice's child table, parsed once per encoding
	diff  iblt.Table // ta minus the current candidate, consumed by peeling
	tb    iblt.Table // the current candidate's encoding
	add   []uint64
	rem   []uint64
	merge []uint64 // the candidate patched by the peeled difference, before it is kept
	kept  []uint64 // arena of the verified recoveries handed out
	peels int      // total child peel iterations (for observability)
}

// keep copies a verified recovery into the arena. A full arena is replaced
// by a larger one rather than grown, so the sets already handed out keep
// their backing.
func (r *childRecoverer) keep(cs []uint64) []uint64 {
	if cap(r.kept)-len(r.kept) < len(cs) {
		r.kept = make([]uint64, 0, max(2*cap(r.kept), len(cs), 256))
	}
	n := len(r.kept)
	r.kept = append(r.kept, cs...)
	return r.kept[n:len(r.kept):len(r.kept)]
}

// forget invalidates every recovery handed out so far and restarts the peel
// count, so a pooled recoverer can serve the next decode from the same arena.
func (r *childRecoverer) forget() {
	r.kept = r.kept[:0]
	r.peels = 0
}

// decodeEnc parses a fixed-width child encoding into the scratch table and
// returns its attached set hash. The parse stays valid until the next call.
func (r *childRecoverer) decodeEnc(buf []byte) (uint64, error) {
	return r.c.decodeInto(&r.ta, buf)
}

// recoverAgainst tries to reconstruct Alice's child set from the last parsed
// child IBLT (with attached hash wantHash) using candidate as Bob's
// counterpart: the candidate's IBLT is subtracted, the difference peeled, and
// candidate patched by it. The result is returned (packed into the kept
// arena) only if it verifies against wantHash.
func (r *childRecoverer) recoverAgainst(wantHash uint64, candidate []uint64) ([]uint64, bool) {
	r.diff.CopyFrom(&r.ta)
	r.tb.Reshape(r.c.cells, iblt.WordWidth, 0, r.c.seed)
	for _, x := range candidate {
		r.tb.InsertUint64(x)
	}
	if err := r.diff.Subtract(&r.tb); err != nil {
		return nil, false
	}
	var err error
	r.add, r.rem, err = r.diff.AppendDecodeUint64(r.add[:0], r.rem[:0])
	r.peels += r.diff.PeelCount()
	if err != nil {
		return nil, false
	}
	r.merge = setutil.AppendApplyDiff(r.merge[:0], candidate, r.add, r.rem)
	if setutil.Hash(r.c.hash, r.merge) != wantHash {
		return nil, false
	}
	return r.keep(r.merge), true
}

// recoverFromCandidates tries candidates in order (plus the empty set as a
// final fallback, covering parent sets of unequal cardinality) and returns
// the first verified recovery.
func (r *childRecoverer) recoverFromCandidates(wantHash uint64, candidates [][]uint64) ([]uint64, bool) {
	for _, cand := range candidates {
		if rec, ok := r.recoverAgainst(wantHash, cand); ok {
			return rec, true
		}
	}
	return r.recoverAgainst(wantHash, nil)
}
