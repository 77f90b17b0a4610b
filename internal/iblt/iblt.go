// Package iblt implements Invertible Bloom Lookup Tables (Goodrich &
// Mitzenmacher; paper §2, Theorem 2.1) with the extensions the paper's
// protocols need:
//
//   - signed counts, so a table can represent two disjoint sets (added keys
//     with +1 counts and deleted keys with -1 counts) and a subtracted pair
//     of tables decodes to the symmetric difference;
//   - per-cell 32-bit checksums to validate peels, since a ±1 count may hide
//     several colliding keys from both sides, and a peel that also checks that
//     a pure key hashes to the cell it sits in; a false peel that slips past
//     both is caught by the verification hash every protocol sends above its
//     tables;
//   - vector-valued keys of a fixed byte width, so an entire child-set
//     encoding (a serialized child IBLT plus a set hash) can itself be a key
//     inside a parent IBLT — the "IBLTs of IBLTs" of §3.2;
//   - deterministic construction from shared public coins, so Alice and Bob
//     build structurally identical tables without communication: a key is
//     hashed once, under the table's seed, and its k cell indexes and its
//     checksum are all derived from that one hash;
//   - compact serialization, so transmitted tables are measured in real
//     bytes by the transport layer: a table that carries its own shape
//     (AppendMarshal), or bare cells whose count and key-sum widths the
//     receiver's plan fixes (AppendCells).
package iblt

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"sosr/internal/hashing"
	"sosr/internal/prng"
)

// DefaultHashCount is the number of hash functions (k in the paper); 4 gives
// a comfortable peeling threshold at the small table sizes reconciliation
// uses.
const DefaultHashCount = 4

// WordWidth is the key width, in bytes, for ordinary uint64-keyed tables.
const WordWidth = 8

// ErrDecodeFailed indicates the peeling process stalled with keys left in
// the table (a detectable failure per §2: "peeling failures ... are entirely
// detectable as keys will remain in the IBLT").
var ErrDecodeFailed = errors.New("iblt: decode failed (peeling stalled)")

// ErrWidthMismatch indicates two tables with different key widths or cell
// counts were combined.
var ErrWidthMismatch = errors.New("iblt: incompatible table shapes")

// Table is an invertible Bloom lookup table over fixed-width byte-string
// keys. The zero value is not usable; construct with New.
type Table struct {
	k       int    // number of hash functions; cells are partitioned into k ranges
	cells   int    // total number of cells (multiple of k)
	width   int    // key width in bytes
	seed    uint64 // seed of every key's one hash (derive)
	counts  []int32
	keySums []byte   // cells * width bytes
	checks  []uint32 // XOR of the keys' 32-bit checksums
	idx     []int    // per-table cell-index scratch, reused across updates/peels
	queue   []int    // per-table peel queue scratch, reused across decodes
	peeled  int      // keys peeled by the most recent decode (PeelCount)
}

const (
	checksumSalt = 0x635f73756d5f6b65
	phi          = 0x9e3779b97f4a7c15 // 2^64 / the golden ratio
)

// New creates a table with at least cells cells (rounded up to a multiple of
// the hash count k) for keys of the given byte width, with hashes derived
// from seed. cells and width must be positive; k defaults to
// DefaultHashCount when 0.
func New(cells, width, k int, seed uint64) *Table {
	sh := Shape{Cells: cells, Width: width, K: k, Seed: seed}.resolved()
	return &Table{
		k:       sh.K,
		cells:   sh.Cells,
		width:   sh.Width,
		seed:    sh.Seed,
		counts:  make([]int32, sh.Cells),
		keySums: make([]byte, sh.Cells*sh.Width),
		checks:  make([]uint32, sh.Cells),
		idx:     make([]int, 0, sh.K),
	}
}

// NewUint64 creates a table for uint64 keys.
func NewUint64(cells, k int, seed uint64) *Table {
	return New(cells, WordWidth, k, seed)
}

// Cells returns the number of cells.
func (t *Table) Cells() int { return t.cells }

// Width returns the key width in bytes.
func (t *Table) Width() int { return t.width }

// keyHashes returns a key's k cell indexes and its checksum, derived from its
// one seeded hash (derive). The indexes live in the table's reusable scratch
// buffer and are valid until the next keyHashes/wordHashes call.
func (t *Table) keyHashes(key []byte) ([]int, uint32) {
	return t.derive(hashing.HashBytes(t.seed, key), t.k)
}

// wordHashes is keyHashes for a word key, hashing the 8-byte value directly
// (HashWord equals HashBytes on the key's LE encoding).
func (t *Table) wordHashes(x uint64) ([]int, uint32) {
	return t.derive(hashing.HashWord(t.seed, x), t.k)
}

// derive is the one place a key's hash h becomes its cell indexes and its
// checksum. It returns the first n of the k indexes: k for an update or a
// peel, 0 for a purity check, which must not overwrite the indexes of the peel
// that asked. Index i lies in partition i (§2's partitioned table), at a
// multiply-shift reduction of h remixed once per partition, so two keys share
// all k cells at the per^-k rate of independent hashes; the linear h₁ + i·h₂
// does not (README, One hash per key).
func (t *Table) derive(h uint64, n int) ([]int, uint32) {
	per := uint64(t.cells / t.k)
	out := t.idx[:0]
	for i := 0; i < n; i++ {
		c, _ := bits.Mul64(prng.Mix64(h+uint64(i+1)*phi), per)
		out = append(out, i*int(per)+int(c))
	}
	t.idx = out
	return out, uint32(prng.Mix64(h ^ checksumSalt))
}

// xorKey folds key into a cell's key sum. Keys are up to several hundred
// bytes when they are child-IBLT encodings, so the XOR runs word-wise.
func (t *Table) xorKey(cell int, key []byte) {
	sum := t.keySums[cell*t.width : (cell+1)*t.width]
	subtle.XORBytes(sum, sum, key)
}

func (t *Table) update(key []byte, delta int32) {
	if len(key) != t.width {
		panic(fmt.Sprintf("iblt: key width %d != table width %d", len(key), t.width))
	}
	idx, cs := t.keyHashes(key) // one hash of the key per update
	for _, c := range idx {
		t.counts[c] += delta
		t.xorKey(c, key)
		t.checks[c] ^= cs
	}
}

// updateWord is the allocation-free word-key path: the 8-byte value is hashed
// and XORed directly into cells, never materialized as a byte slice. Tables
// built through it are byte-identical to ones built through update on the
// key's LE encoding.
func (t *Table) updateWord(x uint64, delta int32) {
	if t.width != WordWidth {
		panic(fmt.Sprintf("iblt: key width %d != table width %d", WordWidth, t.width))
	}
	idx, cs := t.wordHashes(x)
	for _, c := range idx {
		t.counts[c] += delta
		base := c * WordWidth
		binary.LittleEndian.PutUint64(t.keySums[base:],
			binary.LittleEndian.Uint64(t.keySums[base:])^x)
		t.checks[c] ^= cs
	}
}

// Insert adds a key to the table.
func (t *Table) Insert(key []byte) { t.update(key, 1) }

// Delete removes a key from the table; counts may go negative, which is how
// a single table represents a difference of two sets (§2).
func (t *Table) Delete(key []byte) { t.update(key, -1) }

// InsertUint64 adds a word key (width must be WordWidth).
func (t *Table) InsertUint64(x uint64) { t.updateWord(x, 1) }

// DeleteUint64 removes a word key.
func (t *Table) DeleteUint64(x uint64) { t.updateWord(x, -1) }

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	out := &Table{
		k: t.k, cells: t.cells, width: t.width, seed: t.seed,
		counts:  append([]int32(nil), t.counts...),
		keySums: append([]byte(nil), t.keySums...),
		checks:  append([]uint32(nil), t.checks...),
		idx:     make([]int, 0, t.k),
	}
	return out
}

// Shape is the construction arguments of one table: New(Cells, Width, K, Seed).
type Shape struct {
	Cells, Width, K int
	Seed            uint64
}

// NewAll creates one empty table per shape, each what New builds. The tables'
// cell arrays are carved out of one allocation per array kind, so a whole
// family of tables (every level of a sketch) costs six allocations however
// many tables there are. Each table's slices are capacity-limited to its own
// share, but the last table's, which also hold what the allocator rounded each
// array up to, so that the tables' HeapBytes sum to what they hold.
func NewAll(shapes []Shape) []*Table {
	return newAll(len(shapes), func(i int) Shape { return shapes[i] })
}

// CloneAll deep-copies ts, laid out like NewAll.
func CloneAll(ts []*Table) []*Table {
	out := newAll(len(ts), func(i int) Shape {
		return Shape{Cells: ts[i].cells, Width: ts[i].width, K: ts[i].k, Seed: ts[i].seed}
	})
	for i, t := range ts {
		copy(out[i].counts, t.counts)
		copy(out[i].keySums, t.keySums)
		copy(out[i].checks, t.checks)
	}
	return out
}

// resolved returns sh as New reads it: K defaulted, Cells rounded up to a
// multiple of it.
func (sh Shape) resolved() Shape {
	if sh.K <= 0 {
		sh.K = DefaultHashCount
	}
	if sh.Width <= 0 {
		panic("iblt: non-positive key width")
	}
	sh.Cells = RoundCells(sh.Cells, sh.K)
	return sh
}

func newAll(n int, shape func(i int) Shape) []*Table {
	var cells, sums, ks int
	for i := 0; i < n; i++ {
		sh := shape(i).resolved()
		cells, sums, ks = cells+sh.Cells, sums+sh.Cells*sh.Width, ks+sh.K
	}
	tabs := make([]Table, n)
	out := make([]*Table, n)
	// Grown, not made: a grown slice's capacity is its size class.
	counts := slices.Grow([]int32(nil), cells)[:cells]
	keySums := slices.Grow([]byte(nil), sums)[:sums]
	checks := slices.Grow([]uint32(nil), cells)[:cells]
	idx := slices.Grow([]int(nil), ks)[:ks]
	for i := range tabs {
		sh := shape(i).resolved()
		c, s, last := sh.Cells, sh.Cells*sh.Width, i == n-1
		tabs[i] = Table{
			k: sh.K, cells: c, width: sh.Width, seed: sh.Seed,
			counts:  share(&counts, c, last),
			keySums: share(&keySums, s, last),
			checks:  share(&checks, c, last),
			idx:     share(&idx, sh.K, last)[:0],
		}
		out[i] = &tabs[i]
	}
	return out
}

// share cuts n elements off the front of an arena, capacity-limited to them
// unless last.
func share[E any](arena *[]E, n int, last bool) []E {
	s := (*arena)[:n:n]
	if last {
		s = (*arena)[:n:cap(*arena)]
	}
	*arena = (*arena)[n:]
	return s
}

// Reset zeroes every cell while retaining allocations, so one table can
// encode many keys-or-key-sets in sequence without reallocating (the child
// codec encode loops of §3.2 reuse a single scratch table this way).
func (t *Table) Reset() {
	clear(t.counts)
	clear(t.keySums)
	clear(t.checks)
}

// Subtract folds other into t cell-by-cell (t -= other). After Alice's table
// is subtracted by Bob's, decoding yields SA\SB as added keys and SB\SA as
// removed keys. Tables must have identical shape and seed.
func (t *Table) Subtract(other *Table) error {
	if t.cells != other.cells || t.width != other.width || t.k != other.k || t.seed != other.seed {
		return ErrWidthMismatch
	}
	for i := range t.counts {
		t.counts[i] -= other.counts[i]
		t.checks[i] ^= other.checks[i]
	}
	subtle.XORBytes(t.keySums, t.keySums, other.keySums)
	return nil
}

// IsEmpty reports whether every cell is zeroed (a successful full peel).
func (t *Table) IsEmpty() bool {
	for i := range t.counts {
		if t.counts[i] != 0 || t.checks[i] != 0 {
			return false
		}
	}
	sums := t.keySums
	for ; len(sums) >= 8; sums = sums[8:] {
		if binary.LittleEndian.Uint64(sums) != 0 {
			return false
		}
	}
	for _, b := range sums {
		if b != 0 {
			return false
		}
	}
	return true
}

// Decode runs the peeling process and returns the keys with net +1 counts
// (added) and net -1 counts (removed). On a stall it returns what was peeled
// so far along with ErrDecodeFailed; the table is consumed either way. Use
// Clone first if the original must be preserved. It is DecodePacked into a
// diff of its own, so the keys share one backing array.
func (t *Table) Decode() (added, removed [][]byte, err error) {
	var d PackedDiff
	err = t.DecodePacked(&d)
	return d.Added, d.Removed, err
}

// seedQueue fills the table's reusable peel queue with the initially pure
// cells and resets the peel counter. The returned slice aliases t.queue;
// decode loops must store their final (possibly regrown) queue back.
func (t *Table) seedQueue() []int {
	t.peeled = 0
	queue := t.queue
	if cap(queue) < t.cells {
		queue = make([]int, 0, t.cells)
	}
	queue = queue[:0]
	for c := 0; c < t.cells; c++ {
		if t.purable(c) {
			queue = append(queue, c)
		}
	}
	return queue
}

// PeelCount reports how many keys the most recent decode call on this table
// peeled (successfully recovered before finishing or stalling) — the "peel
// iterations" a decode-stage histogram observes.
func (t *Table) PeelCount() int { return t.peeled }

// purable reports whether cell c may hold exactly one key: |count| == 1 and
// the checksum of the key sum matches the checksum sum (§2's guard against
// mixed-sign collisions that net to ±1). A peel takes the key only if it also
// hashes to c, which the key's cell indexes, computed for the peel anyway,
// tell at no extra cost.
func (t *Table) purable(c int) bool {
	if t.counts[c] != 1 && t.counts[c] != -1 {
		return false
	}
	var h uint64
	if t.width == WordWidth {
		h = hashing.HashWord(t.seed, binary.LittleEndian.Uint64(t.keySums[c*WordWidth:]))
	} else {
		h = hashing.HashBytes(t.seed, t.keySums[c*t.width:(c+1)*t.width])
	}
	_, cs := t.derive(h, 0)
	return cs == t.checks[c]
}

// DecodeUint64 decodes a word-keyed table into uint64 slices. For WordWidth
// tables it peels natively over uint64 keys, allocating only the result
// slices; other widths fall back to the generic byte peel.
func (t *Table) DecodeUint64() (added, removed []uint64, err error) {
	return t.AppendDecodeUint64(nil, nil)
}

// AppendDecodeUint64 is DecodeUint64 appending into caller-provided slices
// (either may be nil), so a steady-state decode loop reuses its result
// buffers and allocates nothing. The peel is bounded at cells keys, as
// DecodePacked's is (an honest table never yields more), so a corrupt table
// whose checksum collisions keep minting "pure" cells fails instead of
// spinning.
func (t *Table) AppendDecodeUint64(added, removed []uint64) (a, r []uint64, err error) {
	if t.width != WordWidth {
		ab, rb, err := t.Decode()
		for _, k := range ab {
			added = append(added, binary.LittleEndian.Uint64(k))
		}
		for _, k := range rb {
			removed = append(removed, binary.LittleEndian.Uint64(k))
		}
		return added, removed, err
	}
	queue := t.seedQueue()
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		sign := t.counts[c]
		if sign != 1 && sign != -1 {
			continue // cell changed since enqueued
		}
		x := binary.LittleEndian.Uint64(t.keySums[c*WordWidth:])
		idx, cs := t.wordHashes(x)
		if cs != t.checks[c] || !slices.Contains(idx, c) {
			continue // not pure: the checksum differs, or the key does not hash here
		}
		if t.peeled >= t.cells {
			t.queue = queue[:0]
			return added, removed, ErrDecodeFailed
		}
		t.peeled++
		if sign == 1 {
			added = append(added, x)
		} else {
			removed = append(removed, x)
		}
		for _, ci := range idx {
			t.counts[ci] -= sign
			base := ci * WordWidth
			binary.LittleEndian.PutUint64(t.keySums[base:],
				binary.LittleEndian.Uint64(t.keySums[base:])^x)
			t.checks[ci] ^= cs
			if t.purable(ci) {
				queue = append(queue, ci)
			}
		}
	}
	t.queue = queue[:0]
	if !t.IsEmpty() {
		return added, removed, ErrDecodeFailed
	}
	return added, removed, nil
}

// checkBytes is the width of a serialized cell's checksum. Every table,
// stand-alone or riding inside a parent as a key, carries 32 bits: a checksum
// only rejects a falsely pure cell, and each protocol verifies what a decode
// returns with a 64-bit hash above its tables.
const checkBytes = 4

// SerializedSize returns the exact number of bytes AppendMarshal adds for a
// table of this shape: a fixed header plus (4 + width + 4) bytes per cell.
func (t *Table) SerializedSize() int {
	return headerSize + CellsSize(t.cells, t.width, t.k, marshalCountBytes)
}

// HeapBytes is the table's resident size: its header and the cell and
// scratch arrays it holds.
func (t *Table) HeapBytes() int {
	return int(unsafe.Sizeof(*t)) + 4*cap(t.counts) + cap(t.keySums) + 4*cap(t.checks) + 8*(cap(t.idx)+cap(t.queue))
}

// SerializedSizeFor computes the AppendMarshal size for a hypothetical table,
// used by protocols when budgeting communication.
func SerializedSizeFor(cells, width, k int) int {
	return headerSize + CellsSize(cells, width, k, marshalCountBytes)
}

// CellsSize is the exact number of bytes AppendCells(_, countBytes, sumBytes)
// produces for a table built with New(cells, _, k, _): (countBytes + sumBytes
// + 4) per cell.
func CellsSize(cells, sumBytes, k, countBytes int) int {
	return RoundCells(cells, k) * (countBytes + sumBytes + checkBytes)
}

// RoundCells returns the actual cell count a table built with New(cells, _,
// k, _) ends up with: at least k, rounded up to a multiple of k (k ≤ 0
// selects DefaultHashCount). Protocol codecs use it to plan table shapes
// without allocating probe tables.
func RoundCells(cells, k int) int {
	if k <= 0 {
		k = DefaultHashCount
	}
	if cells < k {
		cells = k
	}
	if rem := cells % k; rem != 0 {
		cells += k - rem
	}
	return cells
}

const (
	headerSize        = 4 + 4 + 4 + 8 // k, cells, width, seed
	marshalCountBytes = 4             // AppendMarshal keeps every int32 count
)

// AppendMarshal appends the table's encoding — the shape header, then the
// cells with 4-byte counts and full-width key sums — to dst and returns the
// extended slice, letting encode loops reuse one buffer across many tables.
// It is the encoding of a table whose shape the receiver takes from the
// sender (UnmarshalInto checks it against the receiver's coins).
func (t *Table) AppendMarshal(dst []byte) []byte {
	dst = grow(dst, t.SerializedSize())
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.k))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.cells))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.width))
	dst = binary.LittleEndian.AppendUint64(dst, t.seed)
	return t.AppendCells(dst, marshalCountBytes, t.width)
}

// grow returns dst with room for need more bytes, doubling so that a buffer
// reused across appends settles after one growth.
func grow(dst []byte, need int) []byte {
	if cap(dst)-len(dst) >= need {
		return dst
	}
	grown := make([]byte, len(dst), (len(dst)+need)*2)
	copy(grown, dst)
	return grown
}

// AppendCells appends the table's cells with no shape header: per cell the
// count in countBytes (1, 2 or 4) little-endian bytes, the first sumBytes
// (1 to the key width) bytes of the key sum, and the 4-byte checksum. It is
// the encoding for a table whose shape both parties derive from their plan,
// where a header would repeat what the receiver already knows — in every
// parent cell, for a table that rides as a key inside another. The layout is
// fixed-width and position-stable, so equal-shaped empty tables encode to
// equal bytes and one encoding can be XORed inside a parent table.
//
// Narrow fields are the low bytes of the value and LoadCells zero-extends
// them. Counts of 1 and 2 bytes suit insert-only tables of fewer than 256 and
// 65 536 keys; a count that does not fit its width is a caller bug and
// panics, like a key of the wrong width. A key sum of fewer bytes than the
// key suits word keys below 2^(8·sumBytes); the bytes above are dropped, so a
// key beyond that range no longer matches its checksum on the far side and
// fails there as a stalled peel.
func (t *Table) AppendCells(dst []byte, countBytes, sumBytes int) []byte {
	if err := t.layoutErr(countBytes, sumBytes); err != nil {
		panic(err.Error())
	}
	start, need := len(dst), CellsSize(t.cells, sumBytes, t.k, countBytes)
	dst = grow(dst, need)[:start+need]
	buf := dst[start:] // every byte below is overwritten; no clearing needed
	off := 0
	for c := 0; c < t.cells; c++ {
		n := uint32(t.counts[c])
		if countBytes < 4 && n>>(8*countBytes) != 0 {
			panic(fmt.Sprintf("iblt: count %d does not fit %d bytes", t.counts[c], countBytes))
		}
		switch countBytes {
		case 1:
			buf[off] = byte(n)
		case 2:
			binary.LittleEndian.PutUint16(buf[off:], uint16(n))
		case 4:
			binary.LittleEndian.PutUint32(buf[off:], n)
		}
		off += countBytes
		copy(buf[off:off+sumBytes], t.keySums[c*t.width:])
		off += sumBytes
		binary.LittleEndian.PutUint32(buf[off:], t.checks[c])
		off += checkBytes
	}
	return dst
}

// layoutErr refuses a cell layout the table cannot be written in.
func (t *Table) layoutErr(countBytes, sumBytes int) error {
	if countBytes != 1 && countBytes != 2 && countBytes != 4 {
		return fmt.Errorf("iblt: count width %d not 1, 2 or 4", countBytes)
	}
	if sumBytes < 1 || sumBytes > t.width {
		return fmt.Errorf("iblt: key-sum width %d not in 1..%d", sumBytes, t.width)
	}
	return nil
}

// LoadCells overwrites every cell of t — already shaped by the caller from
// its plan (New or Reshape) — with an AppendCells encoding of the same count
// and key-sum widths. buf must be exactly the encoding's length; nothing is
// allocated, so no size is ever taken from the input.
func (t *Table) LoadCells(buf []byte, countBytes, sumBytes int) error {
	if err := t.layoutErr(countBytes, sumBytes); err != nil {
		return err
	}
	if need := CellsSize(t.cells, sumBytes, t.k, countBytes); len(buf) != need {
		return fmt.Errorf("iblt: cell encoding is %d bytes, shape needs %d", len(buf), need)
	}
	off := 0
	for c := 0; c < t.cells; c++ {
		switch countBytes {
		case 1:
			t.counts[c] = int32(buf[off])
		case 2:
			t.counts[c] = int32(binary.LittleEndian.Uint16(buf[off:]))
		case 4:
			t.counts[c] = int32(binary.LittleEndian.Uint32(buf[off:]))
		}
		off += countBytes
		sum := t.keySums[c*t.width : (c+1)*t.width]
		clear(sum[copy(sum, buf[off:off+sumBytes]):])
		off += sumBytes
		t.checks[c] = binary.LittleEndian.Uint32(buf[off:])
		off += checkBytes
	}
	return nil
}

// CellsFor returns the recommended number of cells for decoding a set
// difference of at most d keys with good probability at practical sizes.
// Theorem 2.1 says O(d) cells suffice; the constant here (2 plus slack for
// tiny d) is validated empirically by the E3 experiment rather than assumed —
// peeling thresholds are asymptotic, and small tables need extra headroom.
func CellsFor(d int) int {
	if d < 1 {
		d = 1
	}
	c := 2*d + 10
	if c < 16 {
		c = 16
	}
	return c
}

// CellsTight is a lower-slack variant of CellsFor used for the per-level
// child IBLTs of Algorithm 2, where occasional decode failures at low levels
// are by design recovered at higher levels (paper Thm 3.7's X_i/Y_i events),
// so communication-optimal sizing wins over per-table reliability.
func CellsTight(d int) int {
	if d < 1 {
		d = 1
	}
	c := (d*9 + 4) / 5 // 1.8 * d
	if c < 8 {
		c = 8
	}
	return c
}
