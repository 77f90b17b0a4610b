// Package setutil provides canonical-set helpers shared by every protocol:
// sorting/deduplication, symmetric differences, applying a decoded difference
// to a set, and order-invariant set hashing.
//
// Throughout the repository a "set" is a []uint64 in canonical form: strictly
// increasing, no duplicates. The paper's universe of size u maps to the
// element range [0, 2^60) so that elements embed into GF(2^61-1) with room
// for reserved evaluation points (see internal/field).
package setutil

import (
	"slices"

	"sosr/internal/hashing"
)

// MaxElement is the largest universe element supported by protocols that use
// the characteristic-polynomial subroutine (elements must embed into
// GF(2^61-1) below the reserved evaluation-point range).
const MaxElement uint64 = 1<<60 - 1

// Canonical returns a canonical (sorted, deduplicated) copy of xs.
func Canonical(xs []uint64) []uint64 {
	out := make([]uint64, len(xs))
	copy(out, xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// CanonicalSets returns a canonical copy of every child set of parent, in
// parent order: out[i] equals Canonical(parent[i]). All children are packed
// into one backing array — two allocations however many children there are —
// as capacity-limited sub-slices, so appending to one never reaches its
// neighbour. The price of sharing is lifetime: retaining any one child
// retains the whole array.
func CanonicalSets(parent [][]uint64) [][]uint64 {
	arena := make([]uint64, 0, TotalSize(parent))
	out := make([][]uint64, len(parent))
	for i, cs := range parent {
		m := len(arena)
		arena = append(arena, cs...)
		c := arena[m:]
		if !IsCanonical(c) {
			slices.Sort(c)
			c = slices.Compact(c)
			arena = arena[:m+len(c)]
		}
		out[i] = c[:len(c):len(c)]
	}
	return out
}

// CanonicalView returns xs itself when it is already canonical and
// Canonical(xs) otherwise: a caller that only reads the set for the length of
// a call pays for a copy only when the input needs one.
func CanonicalView(xs []uint64) []uint64 {
	if IsCanonical(xs) {
		return xs
	}
	return Canonical(xs)
}

// CanonicalSetsView is CanonicalView for a parent set: parent itself when
// every child set is canonical, CanonicalSets(parent) otherwise.
func CanonicalSetsView(parent [][]uint64) [][]uint64 {
	for _, cs := range parent {
		if !IsCanonical(cs) {
			return CanonicalSets(parent)
		}
	}
	return parent
}

// IsCanonical reports whether xs is strictly increasing.
func IsCanonical(xs []uint64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}

// SymmetricDiff returns |a ⊕ b| for canonical sets a and b.
func SymmetricDiff(a, b []uint64) int {
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			d++
			i++
		case a[i] > b[j]:
			d++
			j++
		default:
			i++
			j++
		}
	}
	return d + (len(a) - i) + (len(b) - j)
}

// DiffWithin reports whether |a ⊕ b| ≤ limit for sorted a and b — canonical
// sets, or sorted multisets, whose equal elements pair off one for one. It is
// SymmetricDiff stopped as soon as the count passes limit: a scan for the one
// close candidate among many far ones dismisses each after a few elements.
func DiffWithin(a, b []uint64, limit int) bool {
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) && d <= limit {
		switch {
		case a[i] < b[j]:
			d++
			i++
		case a[i] > b[j]:
			d++
			j++
		default:
			i++
			j++
		}
	}
	return d+(len(a)-i)+(len(b)-j) <= limit
}

// ApplyDiff returns base with `remove` taken out and `add` put in, in
// canonical form. It is how Bob turns his own child set plus a decoded
// difference into Alice's child set. Elements of remove not present in base
// are ignored; duplicates in add are deduplicated; an element in both add and
// remove ends up present.
//
// A canonical base — every caller's case but a hand-built one — is merged
// with the sorted differences in one linear pass: no re-sort of an already
// sorted set, no map lookup per element. One allocation holds the result and,
// past its end, the copies of add and remove that get sorted (neither
// argument is modified). Any other base takes the general path.
func ApplyDiff(base, add, remove []uint64) []uint64 {
	if !IsCanonical(base) {
		return applyDiffUnsorted(base, add, remove)
	}
	n := len(base) + len(add)
	buf := make([]uint64, n+len(add)+len(remove))
	a, r := buf[n:n+len(add)], buf[n+len(add):]
	copy(a, add)
	copy(r, remove)
	out := mergeDiff(buf[:0], base, a, r)
	return out[:len(out):len(out)]
}

// AppendApplyDiff appends ApplyDiff(base, add, remove) to dst, for decode
// loops that keep one scratch: with a canonical base and room in dst for
// len(base)+len(add) more elements it allocates nothing. It sorts add and
// remove in place, and dst must not overlap any argument.
func AppendApplyDiff(dst, base, add, remove []uint64) []uint64 {
	if !IsCanonical(base) {
		return append(dst, applyDiffUnsorted(base, add, remove)...)
	}
	return mergeDiff(dst, base, add, remove)
}

// mergeDiff is the linear merge behind ApplyDiff: base canonical, add and
// remove sorted here, in place.
func mergeDiff(dst, base, add, remove []uint64) []uint64 {
	slices.Sort(add)
	slices.Sort(remove)
	i, j, k := 0, 0, 0
	for i < len(base) || j < len(add) {
		if j < len(add) && (i >= len(base) || add[j] <= base[i]) {
			v := add[j]
			for j < len(add) && add[j] == v {
				j++
			}
			if i < len(base) && base[i] == v {
				i++
			}
			dst = append(dst, v)
			continue
		}
		v := base[i]
		i++
		for k < len(remove) && remove[k] < v {
			k++
		}
		if k == len(remove) || remove[k] != v {
			dst = append(dst, v)
		}
	}
	return dst
}

// applyDiffUnsorted is ApplyDiff for a base in any order, duplicates allowed.
func applyDiffUnsorted(base, add, remove []uint64) []uint64 {
	rm := make(map[uint64]struct{}, len(remove))
	for _, x := range remove {
		rm[x] = struct{}{}
	}
	out := make([]uint64, 0, len(base)+len(add))
	for _, x := range base {
		if _, ok := rm[x]; !ok {
			out = append(out, x)
		}
	}
	out = append(out, add...)
	slices.Sort(out)
	return slices.Compact(out)
}

// Equal reports whether two canonical sets are equal.
func Equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Contains reports whether canonical set a contains x.
func Contains(a []uint64, x uint64) bool {
	_, found := slices.BinarySearch(a, x)
	return found
}

// Hash returns an order-invariant hash of the canonical set under seed; it is
// the per-child-set hash the protocols attach to encodings (paper §3.2).
func Hash(seed uint64, xs []uint64) uint64 {
	return hashing.HashUint64s(seed, xs)
}

// Clone returns a copy of xs.
func Clone(xs []uint64) []uint64 {
	out := make([]uint64, len(xs))
	copy(out, xs)
	return out
}

// CloneSets deep-copies a slice of sets.
func CloneSets(ss [][]uint64) [][]uint64 {
	out := make([][]uint64, len(ss))
	for i, s := range ss {
		out[i] = Clone(s)
	}
	return out
}

// SortSets orders a slice of canonical sets lexicographically; used to
// canonicalize parent sets before hashing or comparing sets of sets.
func SortSets(ss [][]uint64) {
	slices.SortFunc(ss, slices.Compare)
}

// LessSets is the lexicographic order on canonical sets.
func LessSets(a, b []uint64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// EqualSetOfSets reports whether two parent sets contain exactly the same
// child sets (as multisets of canonical child sets).
func EqualSetOfSets(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	ac, bc := CloneSets(a), CloneSets(b)
	SortSets(ac)
	SortSets(bc)
	for i := range ac {
		if !Equal(ac[i], bc[i]) {
			return false
		}
	}
	return true
}

// HashSetOfSets returns an order-invariant hash of a whole parent set: the
// hash Alice sends so Bob can verify a recovered set of sets (paper §3.2,
// amplification discussion).
func HashSetOfSets(seed uint64, ss [][]uint64) uint64 {
	h, _ := HashSetOfSetsScratch(nil, seed, ss)
	return h
}

// HashSetOfSetsScratch is HashSetOfSets with the child hashes sorted in
// scratch (grown when short, and returned for the next call).
func HashSetOfSetsScratch(scratch []uint64, seed uint64, ss [][]uint64) (uint64, []uint64) {
	hs := slices.Grow(scratch[:0], len(ss))[:len(ss)]
	for i, s := range ss {
		hs[i] = Hash(seed^0xa5a5a5a5a5a5a5a5, s)
	}
	slices.Sort(hs)
	return hashing.HashUint64s(seed, hs), hs
}

// MaxChildLen is the size of the largest child set of the given parents, at
// least 1: the h a shape derived from the data itself takes.
func MaxChildLen(parents ...[][]uint64) int {
	m := 1
	for _, parent := range parents {
		for _, cs := range parent {
			m = max(m, len(cs))
		}
	}
	return m
}

// TotalSize returns the sum of child set sizes (the paper's n).
func TotalSize(ss [][]uint64) int {
	n := 0
	for _, s := range ss {
		n += len(s)
	}
	return n
}
