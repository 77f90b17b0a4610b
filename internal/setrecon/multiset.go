package setrecon

import (
	"errors"
	"fmt"
	"slices"

	"sosr/internal/hashing"
	"sosr/internal/transport"
)

// Multiset handling (paper §3.4): "We create a set from our multiset, where
// if an element x occurs in the multiset k times, then (x, k) is an element
// of the set. After reconciling this set, recovering the corresponding
// multiset is immediate. All of the bounds stay the same (d can only
// decrease), except that u grows to u · n."
//
// The pair (x, k) is packed into a single word: the multiplicity occupies
// the top bits below the 2^60 ceiling, so the packed universe stays within
// the characteristic-polynomial range. This caps elements at 2^48 and
// multiplicities at 2^12; both limits are checked.

// MaxMultisetElement is the largest element a packed multiset may contain.
const MaxMultisetElement uint64 = 1<<48 - 1

// MaxMultiplicity is the largest per-element count a packed multiset may
// contain.
const MaxMultiplicity = 1<<12 - 1

// ErrMultisetRange indicates an element or multiplicity outside the packable
// range.
var ErrMultisetRange = errors.New("setrecon: multiset element or multiplicity out of range")

// MultisetToSet converts a multiset (slice with repeats, any order) into the
// canonical packed set of (element, count) pairs.
func MultisetToSet(ms []uint64) ([]uint64, error) {
	return AppendMultisetToSet(make([]uint64, 0, len(ms)), ms)
}

// AppendMultisetToSet appends MultisetToSet(ms) to dst, so a caller packing
// many multisets fills one arena. It sorts a copy of ms inside dst, folds
// each run of equal elements into one packed word in place, and sorts the
// packed words.
func AppendMultisetToSet(dst, ms []uint64) ([]uint64, error) {
	m := len(dst)
	dst = append(dst, ms...)
	run := dst[m:]
	slices.Sort(run)
	if len(run) > 0 && run[len(run)-1] > MaxMultisetElement {
		return nil, fmt.Errorf("%w: element %d", ErrMultisetRange, run[len(run)-1])
	}
	w := 0
	for i := 0; i < len(run); {
		j := i + 1
		for j < len(run) && run[j] == run[i] {
			j++
		}
		if k := j - i; k > MaxMultiplicity {
			return nil, fmt.Errorf("%w: element %d has multiplicity %d", ErrMultisetRange, run[i], k)
		}
		run[w] = PackCounted(run[i], uint64(j-i))
		w++
		i = j
	}
	slices.Sort(run[:w])
	return dst[:m+w], nil
}

// SetToMultiset inverts MultisetToSet, returning a sorted multiset.
func SetToMultiset(set []uint64) ([]uint64, error) {
	return AppendSetToMultiset(nil, set)
}

// AppendSetToMultiset appends the sorted multiset a packed set stands for to
// dst, so a caller unpacking many sets fills one arena. A packed set that was
// reconciled is the peer's to choose, and a word's count field is 16 bits
// wide where the packing allows 12: every word must carry a multiplicity of 1
// to MaxMultiplicity (its element then lies below MaxMultisetElement by
// construction), else ErrMultisetRange — a crafted word does not get to
// expand into 65 535 copies.
func AppendSetToMultiset(dst, set []uint64) ([]uint64, error) {
	n := 0
	for _, p := range set {
		k := p >> 48
		if k < 1 || k > MaxMultiplicity {
			return nil, fmt.Errorf("%w: packed word %#x has multiplicity %d", ErrMultisetRange, p, k)
		}
		n += int(k)
	}
	at := len(dst)
	dst = slices.Grow(dst, n)
	for _, p := range set {
		x, k := UnpackCounted(p)
		for ; k > 0; k-- {
			dst = append(dst, x)
		}
	}
	slices.Sort(dst[at:])
	return dst, nil
}

// PackCounted packs (element, count) into one word inside the 2^60 universe.
func PackCounted(x, k uint64) uint64 { return (k << 48) | x }

// UnpackCounted splits a packed word into (element, count).
func UnpackCounted(p uint64) (x, k uint64) { return p & MaxMultisetElement, p >> 48 }

// MultisetSymDiff returns the multiset symmetric-difference size: the number
// of element insertions/deletions separating two multisets.
func MultisetSymDiff(a, b []uint64) int {
	ca := make(map[uint64]int, len(a))
	for _, x := range a {
		ca[x]++
	}
	for _, x := range b {
		ca[x]--
	}
	d := 0
	for _, v := range ca {
		if v < 0 {
			v = -v
		}
		d += v
	}
	return d
}

// Multiset reconciles multisets over their packed sets: the IBLT protocol with
// d bounding the packed-set difference, or, when d ≤ 0, the estimator protocol
// (IBLTUnknownD) that the wire runs for an unknown bound. Note that a
// multiplicity change turns into two packed-set differences, so callers should
// pass 2·d_multiset when converting a multiset bound.
func Multiset(sess *transport.Session, coins hashing.Coins, alice, bob []uint64, d int) ([]uint64, *Result, error) {
	sa, err := MultisetToSet(alice)
	if err != nil {
		return nil, nil, err
	}
	sb, err := MultisetToSet(bob)
	if err != nil {
		return nil, nil, err
	}
	var res *Result
	if d > 0 {
		res, err = IBLTKnownD(sess, coins, sa, sb, d)
	} else {
		res, err = IBLTUnknownD(sess, coins, sa, sb)
	}
	if err != nil {
		return nil, nil, err
	}
	rec, err := SetToMultiset(res.Recovered)
	if err != nil {
		return nil, nil, err
	}
	return rec, res, nil
}
