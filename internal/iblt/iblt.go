// Package iblt implements Invertible Bloom Lookup Tables (Goodrich &
// Mitzenmacher; paper §2, Theorem 2.1) with the extensions the paper's
// protocols need:
//
//   - signed counts, so a table can represent two disjoint sets (added keys
//     with +1 counts and deleted keys with -1 counts) and a subtracted pair
//     of tables decodes to the symmetric difference;
//   - per-cell checksums to validate peels, since a ±1 count may hide several
//     colliding keys from both sides;
//   - vector-valued keys of a fixed byte width, so an entire child-set
//     encoding (a serialized child IBLT plus a set hash) can itself be a key
//     inside a parent IBLT — the "IBLTs of IBLTs" of §3.2;
//   - deterministic construction from shared public coins, so Alice and Bob
//     build structurally identical tables without communication;
//   - compact serialization, so transmitted tables are measured in real
//     bytes by the transport layer.
package iblt

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

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
	seed    uint64 // base seed; hash i uses seed+i, checksum uses seed^checksumSalt
	counts  []int32
	keySums []byte // cells * width bytes
	checks  []uint64
	idx     []int    // per-table cell-index scratch, reused across updates/peels
	hs      []uint64 // keyHashes' seed and hash scratch when k is not the default
	queue   []int    // per-table peel queue scratch, reused across decodes
	peeled  int      // keys peeled by the most recent decode (PeelCount)
}

const checksumSalt = 0x635f73756d5f6b65

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
		checks:  make([]uint64, sh.Cells),
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

// HashCount returns k.
func (t *Table) HashCount() int { return t.k }

// Seed returns the seed the table was built with.
func (t *Table) Seed() uint64 { return t.seed }

// indexSeed is the seed of the i-th index hash; the checksum hashes under
// seed^checksumSalt.
func (t *Table) indexSeed(i int) uint64 { return t.seed + uint64(i)*0x9e3779b97f4a7c15 + 1 }

// keyHashes computes the k distinct cells for a key, one per partition (the
// paper's "partitioned hash table, with each hash function having m/k
// cells"), and the key's checksum. The k index hashes and the checksum are
// independent seeded chains over the same bytes, so one interleaved pass
// (hashing.HashBytes5 at the default k, HashBytesMulti otherwise) returns the
// words k+1 separate HashBytes calls would: a wide key is read once, and no
// cell index or checksum byte differs from a table built a hash at a time.
// The indexes live in the table's reusable scratch buffer and are valid until
// the next keyHashes/cellIndexesWord call.
func (t *Table) keyHashes(key []byte) ([]int, uint64) {
	per := uint64(t.cells / t.k)
	if t.k == DefaultHashCount {
		h0, h1, h2, h3, cs := hashing.HashBytes5(t.indexSeed(0), t.indexSeed(1), t.indexSeed(2), t.indexSeed(3), t.seed^checksumSalt, key)
		p := int(per)
		t.idx = append(t.idx[:0], int(h0%per), p+int(h1%per), 2*p+int(h2%per), 3*p+int(h3%per))
		return t.idx, cs
	}
	// hs holds the k+1 seeds, then the k+1 hashes.
	if n := 2 * (t.k + 1); cap(t.hs) < n {
		t.hs = make([]uint64, n)
	}
	seeds, hs := t.hs[:t.k+1], t.hs[t.k+1:2*(t.k+1)]
	for i := 0; i < t.k; i++ {
		seeds[i] = t.indexSeed(i)
	}
	seeds[t.k] = t.seed ^ checksumSalt
	hashing.HashBytesMulti(seeds, hs, key)
	out := t.idx[:0]
	for i := 0; i < t.k; i++ {
		out = append(out, i*int(per)+int(hs[i]%per))
	}
	t.idx = out
	return out, hs[t.k]
}

// cellIndexesWord is keyHashes' indexes for a word key, hashing the 8-byte
// value directly (identical output to keyHashes on the key's LE encoding).
func (t *Table) cellIndexesWord(x uint64) []int {
	per := t.cells / t.k
	out := t.idx[:0]
	for i := 0; i < t.k; i++ {
		h := hashing.HashWord(t.indexSeed(i), x)
		out = append(out, i*per+int(h%uint64(per)))
	}
	t.idx = out
	return out
}

func (t *Table) checksum(key []byte) uint64 {
	return hashing.HashBytes(t.seed^checksumSalt, key)
}

// checksumWord equals checksum on the word's LE encoding.
func (t *Table) checksumWord(x uint64) uint64 {
	return hashing.HashWord(t.seed^checksumSalt, x)
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
	idx, cs := t.keyHashes(key) // one pass over the key per update
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
	cs := t.checksumWord(x)
	for _, c := range t.cellIndexesWord(x) {
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
		checks:  append([]uint64(nil), t.checks...),
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
// share.
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
	counts := make([]int32, cells)
	keySums := make([]byte, sums)
	checks := make([]uint64, cells)
	idx := make([]int, ks)
	for i := range tabs {
		sh := shape(i).resolved()
		c, s := sh.Cells, sh.Cells*sh.Width
		tabs[i] = Table{
			k: sh.K, cells: c, width: sh.Width, seed: sh.Seed,
			counts:  counts[:c:c],
			keySums: keySums[:s:s],
			checks:  checks[:c:c],
			idx:     idx[:0:sh.K],
		}
		counts, keySums, checks, idx = counts[c:], keySums[s:], checks[c:], idx[sh.K:]
		out[i] = &tabs[i]
	}
	return out
}

// Reset zeroes every cell while retaining allocations, so one table can
// encode many keys-or-key-sets in sequence without reallocating (the child
// codec encode loops of §3.2 reuse a single scratch table this way).
func (t *Table) Reset() {
	clear(t.counts)
	clear(t.keySums)
	clear(t.checks)
}

// Negate flips the sign of every count in place (keySums and checksums are
// XOR-based and unchanged). Subtracting a negated table is cell-wise
// addition, which is how two halves of one logical difference merge.
func (t *Table) Negate() {
	for i := range t.counts {
		t.counts[i] = -t.counts[i]
	}
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

// purable reports whether cell c holds exactly one key: |count| == 1 and the
// checksum of the key sum matches the checksum sum (§2's guard against
// mixed-sign collisions that net to ±1).
func (t *Table) purable(c int) bool {
	if t.counts[c] != 1 && t.counts[c] != -1 {
		return false
	}
	if t.width == WordWidth {
		return t.checksumWord(binary.LittleEndian.Uint64(t.keySums[c*WordWidth:])) == t.checks[c]
	}
	return t.checksum(t.keySums[c*t.width:(c+1)*t.width]) == t.checks[c]
}

// DecodeUint64 decodes a word-keyed table into uint64 slices. For WordWidth
// tables it peels natively over uint64 keys, allocating only the result
// slices; other widths fall back to the generic byte peel.
func (t *Table) DecodeUint64() (added, removed []uint64, err error) {
	return t.AppendDecodeUint64(nil, nil)
}

// AppendDecodeUint64 is DecodeUint64 appending into caller-provided slices
// (either may be nil), so a steady-state decode loop reuses its result
// buffers and allocates nothing. The peel is bounded at 2×cells keys — far
// beyond anything an honest table yields — so a corrupt table whose checksum
// collisions keep minting "pure" cells fails instead of spinning.
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
	maxPeels := 2 * t.cells
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !t.purable(c) {
			continue
		}
		if t.peeled >= maxPeels {
			t.queue = queue[:0]
			return added, removed, ErrDecodeFailed
		}
		x := binary.LittleEndian.Uint64(t.keySums[c*WordWidth:])
		sign := t.counts[c]
		t.peeled++
		if sign == 1 {
			added = append(added, x)
		} else {
			removed = append(removed, x)
		}
		cs := t.checksumWord(x)
		for _, ci := range t.cellIndexesWord(x) {
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

// SerializedSize returns the exact number of bytes Marshal produces for a
// table of this shape: a fixed header plus (4 + width + 8) bytes per cell.
func (t *Table) SerializedSize() int {
	return headerSize + CellsSize(t.cells, t.width, t.k, marshalCountBytes)
}

// SerializedSizeFor computes the Marshal size for a hypothetical table, used
// by protocols when budgeting communication.
func SerializedSizeFor(cells, width, k int) int {
	return headerSize + CellsSize(cells, width, k, marshalCountBytes)
}

// CellsSize is the exact number of bytes AppendCells produces for a table
// built with New(cells, width, k, _): (countBytes + width + 8) per cell.
func CellsSize(cells, width, k, countBytes int) int {
	return RoundCells(cells, k) * (countBytes + width + 8)
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
	marshalCountBytes = 4             // Marshal keeps every int32 count
)

// Marshal serializes the table. The layout is fixed-width so an encoding of
// a child IBLT can be XORed inside a parent table: equal-shaped empty tables
// serialize to equal bytes, and every field is position-stable.
func (t *Table) Marshal() []byte {
	return t.AppendMarshal(make([]byte, 0, t.SerializedSize()))
}

// AppendMarshal appends the Marshal encoding — the shape header, then the
// cells with 4-byte counts — to dst and returns the extended slice, letting
// encode loops reuse one buffer across many tables.
func (t *Table) AppendMarshal(dst []byte) []byte {
	dst = grow(dst, t.SerializedSize())
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.k))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.cells))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.width))
	dst = binary.LittleEndian.AppendUint64(dst, t.seed)
	return t.AppendCells(dst, marshalCountBytes)
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
// count in countBytes (1, 2 or 4) little-endian bytes, the key sum, and the
// 8-byte checksum. It is the encoding for a table that rides as a key inside
// another table, where both parties derive the shape from their plan and the
// header would repeat in every parent cell. Narrow counts are the count's low
// bytes and LoadCells zero-extends them, so 1 and 2 bytes suit insert-only
// tables of fewer than 256 and 65 536 keys; a count that does not fit its
// width is a caller bug and panics, like a key of the wrong width.
func (t *Table) AppendCells(dst []byte, countBytes int) []byte {
	if !validCountBytes(countBytes) {
		panic(fmt.Sprintf("iblt: count width %d not 1, 2 or 4", countBytes))
	}
	start, need := len(dst), CellsSize(t.cells, t.width, t.k, countBytes)
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
		copy(buf[off:], t.keySums[c*t.width:(c+1)*t.width])
		off += t.width
		binary.LittleEndian.PutUint64(buf[off:], t.checks[c])
		off += 8
	}
	return dst
}

func validCountBytes(n int) bool { return n == 1 || n == 2 || n == 4 }

// LoadCells overwrites every cell of t — already shaped by the caller from
// its plan (New or Reshape) — with an AppendCells encoding of the same count
// width. buf must be exactly the encoding's length; nothing is allocated, so
// no size is ever taken from the input.
func (t *Table) LoadCells(buf []byte, countBytes int) error {
	if !validCountBytes(countBytes) {
		return fmt.Errorf("iblt: count width %d not 1, 2 or 4", countBytes)
	}
	if need := CellsSize(t.cells, t.width, t.k, countBytes); len(buf) != need {
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
		copy(t.keySums[c*t.width:(c+1)*t.width], buf[off:off+t.width])
		off += t.width
		t.checks[c] = binary.LittleEndian.Uint64(buf[off:])
		off += 8
	}
	return nil
}

// Unmarshal parses a table serialized by Marshal. The claimed shape is
// validated against the actual buffer BEFORE any allocation (see
// parseHeader), so a corrupt or hostile header cannot trigger a giant
// allocation.
func Unmarshal(buf []byte) (*Table, error) {
	k, cells, width, seed, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	t := New(cells, width, k, seed)
	if err := t.LoadCells(buf[headerSize:t.SerializedSize()], marshalCountBytes); err != nil {
		return nil, err
	}
	return t, nil
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

// FuzzSeededKey is a helper for property tests: produces a deterministic
// pseudo-random key of the table's width from a word.
func (t *Table) FuzzSeededKey(x uint64) []byte {
	key := make([]byte, t.width)
	s := x
	for i := 0; i < t.width; i += 8 {
		v := prng.SplitMix64(&s)
		for j := 0; j < 8 && i+j < t.width; j++ {
			key[i+j] = byte(v >> (8 * j))
		}
	}
	return key
}
