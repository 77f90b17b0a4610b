package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"math/bits"
)

// Binary encodings for snapshots and WAL entries. Both are little-endian
// with uvarint lengths; integrity is enforced one level up (a crc64 trailer
// on snapshot files, a per-record crc32 on WAL entries), so the decoders
// here only need to be safe on arbitrary bytes — every length is validated
// against the remaining buffer before it sizes an allocation.

// snapFormat / walFormat version the on-disk encodings.
const (
	snapFormat = 1
	walFormat  = 1
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// ---- writer helpers ----

func appendU64s(dst []byte, xs []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

func appendSets(dst []byte, ss [][]uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendU64s(dst, s)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ---- reader ----

type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("truncated word")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// count validates a claimed element count against the bytes that remain,
// given a minimum encoded size per element, before any allocation.
func (r *reader) count(min int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(r.buf)/min)+1 {
		r.fail("count %d exceeds remaining %d bytes", n, len(r.buf))
		return 0
	}
	return int(n)
}

func (r *reader) u64s() []uint64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = r.u64()
	}
	if r.err != nil {
		return nil
	}
	return xs
}

func (r *reader) sets() [][]uint64 {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	ss := make([][]uint64, n)
	for i := range ss {
		ss[i] = r.u64s()
	}
	if r.err != nil {
		return nil
	}
	return ss
}

func (r *reader) str() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	if len(r.buf) < n {
		r.fail("truncated string")
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// skipBlock steps over one length-prefixed block.
func (r *reader) skipBlock() {
	n := r.count(1)
	if r.err != nil {
		return
	}
	if len(r.buf) < n {
		r.fail("truncated block")
		return
	}
	r.buf = r.buf[n:]
}

// ---- Record ----

func marshalRecord(rec *Record) ([]byte, error) {
	if err := validateKind(rec.Kind); err != nil {
		return nil, err
	}
	out := []byte{snapFormat}
	out = appendString(out, rec.Name)
	out = appendString(out, rec.Kind)
	out = binary.LittleEndian.AppendUint64(out, rec.Version)
	switch rec.Kind {
	case KindSet, KindMultiset:
		out = appendU64s(out, rec.Elems)
	case KindSetsOfSets:
		out = appendSets(out, rec.Parents)
	case KindGraph:
		out = binary.AppendUvarint(out, uint64(rec.N))
		out = binary.AppendUvarint(out, uint64(len(rec.Edges)))
		for _, e := range rec.Edges {
			out = binary.AppendUvarint(out, uint64(e[0]))
			out = binary.AppendUvarint(out, uint64(e[1]))
		}
	case KindForest:
		out = binary.AppendUvarint(out, uint64(len(rec.Parent)))
		for _, p := range rec.Parent {
			out = binary.AppendVarint(out, int64(p))
		}
	}
	// The shard binding: tag 0 for none, tag 2 and the position (tag 1 was
	// the replica addresses of every shard).
	if sb := rec.Shard; sb != nil {
		out = binary.AppendUvarint(append(out, 2), uint64(sb.Index))
		out = binary.AppendUvarint(out, uint64(sb.Count))
		out = binary.LittleEndian.AppendUint64(out, sb.Epoch)
	} else {
		out = append(out, 0)
	}
	// Format 1 ends in a list of serialized digests; the store keeps nothing
	// derived from the contents, so the list is always empty.
	return append(out, 0), nil
}

func unmarshalRecord(buf []byte) (*Record, error) {
	r := &reader{buf: buf}
	if r.byte() != snapFormat {
		return nil, fmt.Errorf("%w: unknown snapshot format", ErrCorrupt)
	}
	rec := &Record{Name: r.str(), Kind: r.str(), Version: r.u64()}
	if r.err != nil {
		return nil, r.err
	}
	if err := validateKind(rec.Kind); err != nil {
		return nil, err
	}
	switch rec.Kind {
	case KindSet, KindMultiset:
		rec.Elems = r.u64s()
	case KindSetsOfSets:
		rec.Parents = r.sets()
	case KindGraph:
		rec.N = int(r.uvarint())
		ne := r.count(2)
		if ne > 0 {
			rec.Edges = make([][2]int, 0, ne)
		}
		for i := 0; i < ne && r.err == nil; i++ {
			a, b := r.uvarint(), r.uvarint()
			rec.Edges = append(rec.Edges, [2]int{int(a), int(b)})
		}
	case KindForest:
		n := r.count(1)
		if n > 0 {
			rec.Parent = make([]int32, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			rec.Parent = append(rec.Parent, int32(r.varint()))
		}
	}
	switch tag := r.byte(); tag {
	case 0:
	case 2:
		index, count := r.uvarint(), r.uvarint()
		rec.Shard = &ShardBinding{Index: int(index), Count: int(count), Epoch: r.u64()}
		if r.err == nil && (index >= count || count > math.MaxInt32) {
			r.fail("shard %d of %d", index, count)
		}
	case 1:
		// Its slice was cut by address-keyed ownership, which no longer
		// decides what a shard holds; hosting the logical dataset again keeps
		// the slice the position owns.
		return nil, fmt.Errorf("%w: shard binding names replica addresses, and shards are positions now: re-host the dataset from its logical data", ErrCorrupt)
	default:
		r.fail("unknown shard binding tag %d", tag)
	}
	// An older writer may have filled the digest list: each entry is a kind
	// byte, seed, s, h, u, d, d̂ and a blob. Their framing is checked so the
	// truncation and trailing-bytes checks still hold; nothing is kept.
	nd := r.count(1)
	for i := 0; i < nd && r.err == nil; i++ {
		r.byte()
		r.u64()
		r.uvarint()
		r.uvarint()
		r.u64()
		r.uvarint()
		r.uvarint()
		r.skipBlock()
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(r.buf))
	}
	return rec, nil
}

// ---- Update ----

// marshalUpdate encodes up into a buffer of exactly its length: one
// allocation, however many elements and sets it carries.
func marshalUpdate(up *Update) []byte {
	return appendUpdate(make([]byte, 0, updateSize(up)), up)
}

// appendUpdate appends up's encoding to dst.
func appendUpdate(dst []byte, up *Update) []byte {
	dst = append(dst, walFormat)
	dst = binary.LittleEndian.AppendUint64(dst, up.Version)
	dst = appendU64s(dst, up.Add)
	dst = appendU64s(dst, up.Remove)
	dst = appendSets(dst, up.AddSets)
	return appendSets(dst, up.RemoveSets)
}

// updateSize is the length of up's encoding.
func updateSize(up *Update) int {
	return 1 + 8 + u64sSize(up.Add) + u64sSize(up.Remove) + setsSize(up.AddSets) + setsSize(up.RemoveSets)
}

func u64sSize(xs []uint64) int { return uvarintSize(uint64(len(xs))) + 8*len(xs) }

func setsSize(ss [][]uint64) int {
	n := uvarintSize(uint64(len(ss)))
	for _, s := range ss {
		n += u64sSize(s)
	}
	return n
}

// uvarintSize is the length of binary.AppendUvarint's encoding of x.
func uvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func unmarshalUpdate(buf []byte) (*Update, error) {
	r := &reader{buf: buf}
	if r.byte() != walFormat {
		return nil, fmt.Errorf("%w: unknown WAL format", ErrCorrupt)
	}
	up := &Update{Version: r.u64()}
	up.Add = r.u64s()
	up.Remove = r.u64s()
	up.AddSets = r.sets()
	up.RemoveSets = r.sets()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing WAL bytes", ErrCorrupt, len(r.buf))
	}
	return up, nil
}

// cloneRecord deep-copies a record so Mem cannot alias caller slices. Empty
// slices normalize to nil (the codec does not distinguish them either).
func cloneRecord(rec *Record) *Record {
	out := *rec
	out.Elems = append([]uint64(nil), rec.Elems...)
	out.Parents = nil
	if len(rec.Parents) > 0 {
		out.Parents = make([][]uint64, len(rec.Parents))
		for i, s := range rec.Parents {
			out.Parents[i] = append([]uint64(nil), s...)
		}
	}
	out.Edges = append([][2]int(nil), rec.Edges...)
	out.Parent = append([]int32(nil), rec.Parent...)
	if rec.Shard != nil {
		sb := *rec.Shard
		out.Shard = &sb
	}
	return &out
}

func cloneUpdate(up *Update) *Update {
	out := *up
	out.Add = append([]uint64(nil), up.Add...)
	out.Remove = append([]uint64(nil), up.Remove...)
	out.AddSets, out.RemoveSets = nil, nil
	if len(up.AddSets) > 0 {
		out.AddSets = make([][]uint64, len(up.AddSets))
		for i, s := range up.AddSets {
			out.AddSets[i] = append([]uint64(nil), s...)
		}
	}
	if len(up.RemoveSets) > 0 {
		out.RemoveSets = make([][]uint64, len(up.RemoveSets))
		for i, s := range up.RemoveSets {
			out.RemoveSets[i] = append([]uint64(nil), s...)
		}
	}
	return &out
}
