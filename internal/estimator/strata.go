package estimator

import (
	"math/bits"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
)

// Strata is the strata estimator of [14] (Eppstein, Goodrich, Uyeda,
// Varghese: "What's the Difference?"), the baseline the paper improves on:
// log u strata of fixed-size IBLTs, where element x lands in the stratum
// equal to the number of trailing zeros of a hash of x. Estimation decodes
// strata from sparsest to densest and scales the accumulated count at the
// first stratum that fails to decode.
//
// Relative to the paper's Estimator it costs an extra O(log u) factor in
// space and an extra O(log n) factor in merge/query time (§3), which
// experiment E5 measures.
type Strata struct {
	strata []*iblt.Table
	hasher hashing.Pairwise
}

// DefaultStrataCells is the per-stratum IBLT size used by [14]-style
// estimators (80 cells in the original paper's evaluation).
const DefaultStrataCells = 80

// NewStrata creates a strata estimator with the given number of strata
// (default 32 when <= 0) and cells per stratum (default DefaultStrataCells).
func NewStrata(strataCount, cells int, seed uint64) *Strata {
	if strataCount <= 0 {
		strataCount = 32
	}
	if cells <= 0 {
		cells = DefaultStrataCells
	}
	s := &Strata{
		strata: make([]*iblt.Table, strataCount),
		hasher: hashing.NewPairwise(seed ^ 0x5742a7a),
	}
	for i := range s.strata {
		s.strata[i] = iblt.NewUint64(cells, 3, seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	return s
}

func (s *Strata) stratum(x uint64) int {
	h := s.hasher.Hash(x)
	l := bits.TrailingZeros64(h | (1 << 62))
	if l >= len(s.strata) {
		l = len(s.strata) - 1
	}
	return l
}

// Add records x on the given side (SideA inserts, SideB deletes, so a
// stratum's table directly represents the per-stratum difference).
func (s *Strata) Add(x uint64, side Side) {
	t := s.strata[s.stratum(x)]
	switch side {
	case SideA:
		t.InsertUint64(x)
	case SideB:
		t.DeleteUint64(x)
	default:
		panic("estimator: invalid side")
	}
}

// Estimate decodes strata from sparsest to densest, accumulating decoded
// difference counts; at the first stratum i that fails to decode it returns
// 2^(i+1) times the count accumulated so far ([14] §4.2).
func (s *Strata) Estimate() uint64 {
	count := uint64(0)
	for i := len(s.strata) - 1; i >= 0; i-- {
		added, removed, err := s.strata[i].Clone().Decode()
		if err != nil {
			return count << uint(i+1)
		}
		count += uint64(len(added) + len(removed))
	}
	return count
}

// SerializedSize returns the size of the strata on the wire in bytes: a
// 16-byte header, then each stratum's IBLT behind a 4-byte length.
func (s *Strata) SerializedSize() int {
	n := 4 + 4 + 8
	for _, t := range s.strata {
		n += 4 + t.SerializedSize()
	}
	return n
}
