package sosr

import (
	"errors"

	"sosr/internal/hashing"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// errCharPolyNeedsBound rejects UseCharPoly without a difference bound
// (Theorem 2.3 is a known-d protocol; compose with an estimator otherwise).
var errCharPolyNeedsBound = errors.New("sosr: UseCharPoly requires KnownDiff > 0")

// SetConfig configures one-level set reconciliation.
type SetConfig struct {
	// Seed seeds the shared public coins. Both parties must agree on it.
	Seed uint64
	// KnownDiff bounds |A ⊕ B| when positive; when 0 the two-round
	// estimator-based protocol runs instead (Corollary 3.2).
	KnownDiff int
	// UseCharPoly selects the characteristic-polynomial protocol of
	// Theorem 2.3 (probability-1 success, O(n·d + d³) time) instead of the
	// IBLT protocol of Corollary 2.2. Requires KnownDiff > 0.
	UseCharPoly bool
}

// SetResult reports a one-way set reconciliation: Recovered is Bob's copy of
// Alice's set; OnlyA and OnlyB are the decoded difference.
type SetResult struct {
	Recovered    []uint64
	OnlyA, OnlyB []uint64
	Stats        Stats
}

// ReconcileSets runs one-way set reconciliation: given Alice's and Bob's
// sets (any order, duplicates ignored), Bob recovers Alice's set. See
// SetConfig for protocol selection.
func ReconcileSets(alice, bob []uint64, cfg SetConfig) (*SetResult, error) {
	a, b := setutil.Canonical(alice), setutil.Canonical(bob)
	sess := transport.New()
	coins := hashing.NewCoins(cfg.Seed)
	var res *setrecon.Result
	var err error
	switch {
	case cfg.UseCharPoly:
		if cfg.KnownDiff <= 0 {
			return nil, errCharPolyNeedsBound
		}
		res, err = setrecon.CharPoly(sess, coins, a, b, cfg.KnownDiff)
	case cfg.KnownDiff > 0:
		res, err = setrecon.IBLTKnownD(sess, coins, a, b, cfg.KnownDiff)
	default:
		res, err = setrecon.IBLTUnknownD(sess, coins, a, b)
	}
	if err != nil {
		return nil, err
	}
	return &SetResult{
		Recovered: res.Recovered,
		OnlyA:     res.OnlyA,
		OnlyB:     res.OnlyB,
		Stats:     res.Stats,
	}, nil
}

// ReconcileMultisets reconciles multisets (slices with repeats) via the
// §3.4 (element, count) packing. diffBound bounds the packed-set difference;
// pass 2× the multiset edit distance when converting a multiset bound.
// Elements must be < 2^48 with per-element multiplicity < 2^12.
func ReconcileMultisets(alice, bob []uint64, diffBound int, seed uint64) ([]uint64, Stats, error) {
	sess := transport.New()
	recovered, res, err := setrecon.MultisetKnownD(sess, hashing.NewCoins(seed), alice, bob, diffBound)
	if err != nil {
		return nil, Stats{}, err
	}
	return recovered, res.Stats, nil
}

// SetDifference returns |a ⊕ b| computed locally (ground truth for sizing
// and experiments, not a protocol).
func SetDifference(a, b []uint64) int {
	return setutil.SymmetricDiff(setutil.Canonical(a), setutil.Canonical(b))
}
