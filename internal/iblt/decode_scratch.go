package iblt

import (
	"encoding/binary"
	"fmt"
)

// Decode-side scratch reuse: the receive path unmarshals, subtracts, and
// peels many tables per session (one per cascade level per candidate), so
// the hot Bob loops reuse one Table's storage across all of them instead of
// allocating a fresh table per step. These APIs mirror the encode-side
// Reset/AppendMarshal discipline.

// Reshape turns t into an empty table of the given shape (the same rounding
// rules as New), reusing its existing storage when the capacities suffice.
// All cells are zeroed. The zero Table value is a valid target.
func (t *Table) Reshape(cells, width, k int, seed uint64) {
	if k <= 0 {
		k = DefaultHashCount
	}
	cells = RoundCells(cells, k)
	if width <= 0 {
		panic("iblt: non-positive key width")
	}
	t.k, t.cells, t.width, t.seed = k, cells, width, seed
	if cap(t.counts) < cells {
		t.counts = make([]int32, cells)
	} else {
		t.counts = t.counts[:cells]
		clear(t.counts)
	}
	if cap(t.keySums) < cells*width {
		t.keySums = make([]byte, cells*width)
	} else {
		t.keySums = t.keySums[:cells*width]
		clear(t.keySums)
	}
	if cap(t.checks) < cells {
		t.checks = make([]uint64, cells)
	} else {
		t.checks = t.checks[:cells]
		clear(t.checks)
	}
	if cap(t.idx) < k {
		t.idx = make([]int, 0, k)
	}
	t.peeled = 0
}

// CopyFrom makes t a deep copy of src, reusing t's storage when possible —
// the scratch-reuse form of Clone for recovery loops that repeatedly restore
// a working table from a pristine one.
func (t *Table) CopyFrom(src *Table) {
	t.Reshape(src.cells, src.width, src.k, src.seed)
	copy(t.counts, src.counts)
	copy(t.keySums, src.keySums)
	copy(t.checks, src.checks)
}

// parseHeader validates a Marshal header and the buffer length against the
// claimed shape before any allocation can be sized from hostile input.
func parseHeader(buf []byte) (k, cells, width int, seed uint64, err error) {
	if len(buf) < headerSize {
		return 0, 0, 0, 0, fmt.Errorf("iblt: truncated header (%d bytes)", len(buf))
	}
	k = int(binary.LittleEndian.Uint32(buf[0:]))
	cells = int(binary.LittleEndian.Uint32(buf[4:]))
	width = int(binary.LittleEndian.Uint32(buf[8:]))
	seed = binary.LittleEndian.Uint64(buf[12:])
	if k <= 0 || cells <= 0 || width <= 0 || cells%k != 0 {
		return 0, 0, 0, 0, fmt.Errorf("iblt: malformed header k=%d cells=%d width=%d", k, cells, width)
	}
	// Bound cells and width by the buffer before multiplying, so hostile
	// headers cannot overflow the size arithmetic below.
	if cells > len(buf) || width > len(buf) {
		return 0, 0, 0, 0, fmt.Errorf("iblt: truncated body (%d cells of width %d in %d bytes)", cells, width, len(buf))
	}
	need64 := int64(headerSize) + int64(cells)*int64(4+width+8)
	if int64(len(buf)) < need64 {
		return 0, 0, 0, 0, fmt.Errorf("iblt: truncated body (%d < %d bytes)", len(buf), need64)
	}
	return k, cells, width, seed, nil
}

// UnmarshalInto parses a table serialized by Marshal into t, reusing t's
// storage (the decode-side analogue of AppendMarshal). On error t is left
// unchanged.
func (t *Table) UnmarshalInto(buf []byte) error {
	k, cells, width, seed, err := parseHeader(buf)
	if err != nil {
		return err
	}
	t.Reshape(cells, width, k, seed)
	return t.LoadCells(buf[headerSize:t.SerializedSize()], marshalCountBytes)
}

// PackedDiff receives DecodePacked results: every peeled key is copied into
// one reusable arena, and Added/Removed are subslices of it. Reusing one
// PackedDiff across decodes makes the byte-keyed peel allocation-free in
// steady state. The key slices are valid until the next DecodePacked call on
// the same PackedDiff.
type PackedDiff struct {
	Added   [][]byte
	Removed [][]byte
	arena   []byte
}

// reset prepares the diff for a table of the given shape: the arena must fit
// cells keys (the peel bound) without growing, so issued subslices stay
// valid.
func (d *PackedDiff) reset(cells, width int) {
	if need := cells * width; cap(d.arena) < need {
		d.arena = make([]byte, 0, need)
	}
	d.arena = d.arena[:0]
	if cap(d.Added) < cells {
		d.Added = make([][]byte, 0, cells)
	}
	if cap(d.Removed) < cells {
		d.Removed = make([][]byte, 0, cells)
	}
	d.Added, d.Removed = d.Added[:0], d.Removed[:0]
}

// grab copies key into the arena and returns the stable copy.
func (d *PackedDiff) grab(key []byte) []byte {
	n := len(d.arena)
	d.arena = append(d.arena, key...)
	return d.arena[n : n+len(key)]
}

// DecodePacked runs the peeling process like Decode, but packs every peeled
// key into d's arena instead of allocating one slice per key. The peel is
// bounded at cells keys (the arena capacity; an honest table never yields
// more, since every peel empties at least the pure cell it came from), so a
// corrupt table fails with ErrDecodeFailed instead of overrunning. The table
// is consumed either way.
func (t *Table) DecodePacked(d *PackedDiff) error {
	d.reset(t.cells, t.width)
	queue := t.seedQueue()
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		sign := t.counts[c]
		if sign != 1 && sign != -1 {
			continue // cell changed since enqueued
		}
		// One pass over the cell's key sum gives the checksum that decides
		// whether it is a key at all and, when it is, that key's cells.
		idx, cs := t.keyHashes(t.keySums[c*t.width : (c+1)*t.width])
		if cs != t.checks[c] {
			continue
		}
		if t.peeled >= t.cells {
			t.queue = queue[:0]
			return ErrDecodeFailed
		}
		key := d.grab(t.keySums[c*t.width : (c+1)*t.width])
		t.peeled++
		if sign == 1 {
			d.Added = append(d.Added, key)
		} else {
			d.Removed = append(d.Removed, key)
		}
		// Remove the key from all its cells (adding it back when it was a
		// deletion), which may create new pure cells.
		for _, ci := range idx {
			t.counts[ci] -= sign
			t.xorKey(ci, key)
			t.checks[ci] ^= cs
			if t.purable(ci) {
				queue = append(queue, ci)
			}
		}
	}
	t.queue = queue[:0]
	if !t.IsEmpty() {
		return ErrDecodeFailed
	}
	return nil
}
