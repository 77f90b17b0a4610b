package core

import (
	"fmt"
	"slices"

	"sosr/internal/matching"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
)

// Multisets of multisets (paper §3.4): "All of our protocols can be adapted
// to reconciling sets of multisets or multisets of multisets in a similar
// way." Inner multisets become packed sets via the (element, count) trick of
// setrecon.MultisetToSet. Duplicate child sets at the parent level (a parent
// *multiset*) are made distinct by attaching a single multiplicity-tag
// element to each distinct child set, so a count change of ±1 costs two
// element differences — the bounds change only by constant factors.

// multTagPrefix occupies the count field of a packed word with the reserved
// value 0xFFF, which EncodeMultisetParent guarantees no real packed element
// uses (inner multiplicities are capped one below setrecon.MaxMultiplicity).
const multTagPrefix = uint64(setrecon.MaxMultiplicity) << 48

// MultTag returns the parent-multiplicity tag element for count k.
func MultTag(k int) uint64 { return multTagPrefix | uint64(k) }

// IsMultTag reports whether a packed element is a multiplicity tag, and its
// count.
func IsMultTag(x uint64) (int, bool) {
	if x>>48 == uint64(setrecon.MaxMultiplicity) {
		return int(x & ((1 << 48) - 1)), true
	}
	return 0, false
}

// EncodeMultisetParent converts a parent multiset of inner multisets into a
// canonical set of distinct child sets: each inner multiset is packed, equal
// inner multisets are grouped, and each group's packed set gains a MultTag
// carrying the group count. Every child is a sub-slice of one arena.
func EncodeMultisetParent(inner [][]uint64) ([][]uint64, error) {
	return new(MultisetParentWork).Encode(inner)
}

// DecodeMultisetParent inverts EncodeMultisetParent, returning each distinct
// inner multiset (sorted, a sub-slice of one arena) with its parent-level
// count.
func DecodeMultisetParent(parent [][]uint64) (inner [][]uint64, counts []int, err error) {
	return new(MultisetParentWork).Decode(parent)
}

// MultisetParentWork is the arena and the headers one EncodeMultisetParent or
// DecodeMultisetParent works in, for a caller that converts a collection per
// session (forest reconciliation) and keeps the scratch between sessions.
// The zero value is ready; what a method returns aliases the work and is
// valid until its next call.
type MultisetParentWork struct {
	arena  []uint64
	sets   [][]uint64
	counts []int
}

// Encode is EncodeMultisetParent in the work's arena.
func (w *MultisetParentWork) Encode(inner [][]uint64) ([][]uint64, error) {
	// Each packed child is followed by one spare word for its tag.
	arena := slices.Grow(w.arena[:0], setutil.TotalSize(inner)+len(inner))
	packed := slices.Grow(w.sets[:0], len(inner))[:len(inner)]
	w.arena, w.sets = arena, packed
	for i, ms := range inner {
		m := len(arena)
		var err error
		if arena, err = setrecon.AppendMultisetToSet(arena, ms); err != nil {
			return nil, fmt.Errorf("core: inner multiset %d: %w", i, err)
		}
		packed[i] = arena[m:]
		for _, x := range packed[i] {
			if _, isTag := IsMultTag(x); isTag {
				return nil, fmt.Errorf("core: inner multiset %d collides with multiplicity tag", i)
			}
		}
		arena = append(arena, 0)
	}
	// Sorting brings equal packed sets together; each run becomes one child.
	// A tag exceeds every packed element, so it lands in the spare word and
	// the child stays canonical.
	setutil.SortSets(packed)
	out := packed[:0]
	for i := 0; i < len(packed); {
		j := i + 1
		for j < len(packed) && slices.Equal(packed[i], packed[j]) {
			j++
		}
		n := len(packed[i]) + 1
		cs := packed[i][:n:n]
		cs[n-1] = MultTag(j - i)
		out = append(out, cs)
		i = j
	}
	setutil.SortSets(out)
	return out, nil
}

// Decode is DecodeMultisetParent in the work's arena. A recovered collection
// is the peer's to choose: a word whose count field exceeds what the packing
// allows is refused (setrecon.ErrMultisetRange) before anything is expanded
// or sized from it.
func (w *MultisetParentWork) Decode(parent [][]uint64) (inner [][]uint64, counts []int, err error) {
	total := 0
	for i, cs := range parent {
		for _, x := range cs {
			if _, isTag := IsMultTag(x); isTag {
				continue
			}
			k := int(x >> 48)
			if k < 1 || k > setrecon.MaxMultiplicity {
				return nil, nil, fmt.Errorf("core: child set %d: %w: multiplicity %d", i, setrecon.ErrMultisetRange, k)
			}
			total += k
		}
	}
	arena := slices.Grow(w.arena[:0], total)
	inner = slices.Grow(w.sets[:0], len(parent))[:len(parent)]
	counts = slices.Grow(w.counts[:0], len(parent))[:len(parent)]
	w.arena, w.sets, w.counts = arena, inner, counts
	for i, cs := range parent {
		m, count := len(arena), -1
		for _, x := range cs {
			if k, isTag := IsMultTag(x); isTag {
				if count >= 0 {
					return nil, nil, fmt.Errorf("core: child set %d has two multiplicity tags", i)
				}
				count = k
				continue
			}
			e, k := setrecon.UnpackCounted(x)
			for ; k > 0; k-- {
				arena = append(arena, e)
			}
		}
		if count < 0 {
			return nil, nil, fmt.Errorf("core: child set %d missing multiplicity tag", i)
		}
		slices.Sort(arena[m:])
		inner[i], counts[i] = arena[m:len(arena):len(arena)], count
	}
	return inner, counts, nil
}

// MultisetDistance is the ground-truth d between two parent multisets of
// inner multisets: minimum-cost matching with multiset symmetric-difference
// costs, flattening parent multiplicities.
func MultisetDistance(a, b [][]uint64, countsA, countsB []int) int {
	flat := func(inner [][]uint64, counts []int) [][]uint64 {
		var out [][]uint64
		for i, ms := range inner {
			for c := 0; c < counts[i]; c++ {
				out = append(out, ms)
			}
		}
		return out
	}
	fa, fb := flat(a, countsA), flat(b, countsB)
	return int(setOfMultisetsDistance(fa, fb))
}

func setOfMultisetsDistance(a, b [][]uint64) int64 {
	return matching.SetOfSetsDistance(a, b, setrecon.MultisetSymDiff)
}
