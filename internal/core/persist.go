package core

import (
	"encoding/binary"
	"fmt"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
)

// Serialization of live IncrementalDigest state, so a restarted server can
// resume patching the exact builders it held before the crash instead of
// paying an O(|parent|) rebuild per hot digest on its first post-restart
// session. The encoding carries only the linear state (tables, hash
// multisets, count); every derived structure (codecs, encoders, the cascade
// plan) is a pure function of (kind, coins, p, d, dHat), which the caller
// persists alongside and passes back to RestoreIncrementalDigest.

// persistFormat versions the digest persistence encoding. Format 2 has the
// same framing as format 1; the bump marks that the parent tables inside are
// keyed by the compact child encodings, so a format-1 blob is refused by
// version rather than by the key-width check it would also fail.
const persistFormat = 2

// MarshalBinary serializes the digest's mutable state. The output is not
// canonical (map iteration order leaks into it); equality of restored
// digests is judged by SnapshotMsg bytes, which are canonical.
func (b *IncrementalDigest) MarshalBinary() ([]byte, error) {
	out := []byte{persistFormat}
	out = binary.AppendUvarint(out, uint64(b.count))
	appendHashMap := func(dst []byte, m map[uint64]int) []byte {
		dst = binary.AppendUvarint(dst, uint64(len(m)))
		for h, c := range m {
			dst = binary.LittleEndian.AppendUint64(dst, h)
			dst = binary.AppendUvarint(dst, uint64(c))
		}
		return dst
	}
	out = appendHashMap(out, b.hashes)
	out = appendHashMap(out, b.vHashes)
	out = binary.AppendUvarint(out, uint64(len(b.tables)))
	for _, t := range b.tables {
		enc := t.Marshal()
		out = binary.AppendUvarint(out, uint64(len(enc)))
		out = append(out, enc...)
	}
	return out, nil
}

// persistReader walks a MarshalBinary buffer with sticky error state.
type persistReader struct {
	buf []byte
	err error
}

func (r *persistReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("%w: truncated varint", ErrBadDigest)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *persistReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = fmt.Errorf("%w: truncated word", ErrBadDigest)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *persistReader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)) < n {
		r.err = fmt.Errorf("%w: truncated block (%d of %d bytes)", ErrBadDigest, len(r.buf), n)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *persistReader) hashMap() map[uint64]int {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.buf)/8+1) {
		if r.err == nil {
			r.err = fmt.Errorf("%w: hash map claims %d entries in %d bytes", ErrBadDigest, n, len(r.buf))
		}
		return nil
	}
	m := make(map[uint64]int, n)
	for i := uint64(0); i < n; i++ {
		h := r.u64()
		c := r.uvarint()
		if r.err != nil {
			return nil
		}
		m[h] = int(c)
	}
	return m
}

// RestoreIncrementalDigest rebuilds a builder persisted by MarshalBinary.
// The structural parameters must be the ones the digest was created with
// (they are part of its identity, and the caller's persistence key); the
// restored tables are validated cell-for-cell against the shapes those
// parameters derive, so a corrupt or mismatched blob fails loudly instead of
// producing a digest that decodes garbage.
func RestoreIncrementalDigest(kind DigestKind, coins hashing.Coins, p Params, d, dHat int, data []byte) (*IncrementalDigest, error) {
	b, err := NewIncrementalDigest(kind, coins, p, d, dHat)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 || data[0] != persistFormat {
		return nil, fmt.Errorf("%w: unknown digest persistence format", ErrBadDigest)
	}
	r := &persistReader{buf: data[1:]}
	count := r.uvarint()
	hashes := r.hashMap()
	vHashes := r.hashMap()
	ntables := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if int(ntables) != len(b.tables) {
		return nil, fmt.Errorf("%w: %d persisted tables, parameters derive %d", ErrBadDigest, ntables, len(b.tables))
	}
	for i := range b.tables {
		enc := r.bytes(r.uvarint())
		if r.err != nil {
			return nil, r.err
		}
		t, err := iblt.Unmarshal(enc)
		if err != nil {
			return nil, fmt.Errorf("%w: table %d: %v", ErrBadDigest, i, err)
		}
		want := b.tables[i]
		if t.Cells() != want.Cells() || t.Width() != want.Width() ||
			t.HashCount() != want.HashCount() || t.Seed() != want.Seed() {
			return nil, fmt.Errorf("%w: table %d shape (%d cells × %d bytes, k=%d) does not match parameters (%d × %d, k=%d)",
				ErrBadDigest, i, t.Cells(), t.Width(), t.HashCount(), want.Cells(), want.Width(), want.HashCount())
		}
		b.tables[i] = t
	}
	b.count = int(count)
	b.hashes = hashes
	b.vHashes = vHashes
	if b.hashes == nil {
		b.hashes = map[uint64]int{}
	}
	if b.vHashes == nil {
		b.vHashes = map[uint64]int{}
	}
	return b, nil
}

// Params/seed accessors used by the persistence layer to key digest blobs.

// PersistKey describes the identity of an IncrementalDigest: everything
// RestoreIncrementalDigest needs besides the MarshalBinary blob.
type PersistKey struct {
	Kind DigestKind
	Seed uint64 // coins master
	S, H int
	U    uint64
	D    int
	DHat int
}

// Key returns the digest's persistence identity.
func (b *IncrementalDigest) Key() PersistKey {
	pl := &b.plan
	return PersistKey{Kind: pl.kind, Seed: pl.coins.Master(), S: pl.p.S, H: pl.p.H, U: pl.p.U, D: pl.d, DHat: pl.dHat}
}
