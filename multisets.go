package sosr

import (
	"errors"
	"fmt"

	"sosr/internal/core"
	"sosr/internal/setrecon"
)

// Sets of multisets (§3.4): child collections may contain repeated
// elements. Each child multiset is packed into a set of (element, count)
// words and the ordinary sets-of-sets protocols apply; "all of the bounds
// stay the same (d can only decrease), except that u grows to u·n".
// Elements must be < 2^48 and per-element multiplicities < 2^12.

// MultisetChildResult reports a sets-of-multisets reconciliation.
type MultisetChildResult struct {
	// Recovered is Bob's copy of Alice's collection of child multisets.
	Recovered [][]uint64
	// Added / Removed are the child-multiset level diff.
	Added, Removed [][]uint64
	Stats          Stats
	Protocol       Protocol
}

// ReconcileSetsOfMultisets reconciles parents whose children are multisets
// (given as slices with repeats, any order). cfg.KnownDiff bounds the
// packed-set difference: pass 2× the multiset edit bound when converting.
func ReconcileSetsOfMultisets(alice, bob [][]uint64, cfg Config) (*MultisetChildResult, error) {
	packA, err := packChildren(alice)
	if err != nil {
		return nil, fmt.Errorf("sosr: alice: %w", err)
	}
	packB, err := packChildren(bob)
	if err != nil {
		return nil, fmt.Errorf("sosr: bob: %w", err)
	}
	cfg.Universe = 0 // packed words are not the caller's elements: derive their universe
	res, err := ReconcileSetsOfSets(packA, packB, cfg)
	if err != nil {
		return nil, err
	}
	recovered, errR := unpackChildren(res.Recovered)
	added, errA := unpackChildren(res.Added)
	removed, errB := unpackChildren(res.Removed)
	if err := errors.Join(errR, errA, errB); err != nil {
		return nil, fmt.Errorf("sosr: recovered collection: %w", err)
	}
	return &MultisetChildResult{
		Recovered: recovered,
		Added:     added,
		Removed:   removed,
		Stats:     res.Stats,
		Protocol:  res.Protocol,
	}, nil
}

// SetsOfMultisetsDistance computes the ground-truth minimum-matching
// distance with multiset symmetric-difference costs.
func SetsOfMultisetsDistance(a, b [][]uint64) int {
	return core.MultisetDistance(a, b, ones(len(a)), ones(len(b)))
}

func packChildren(parent [][]uint64) ([][]uint64, error) {
	out := make([][]uint64, len(parent))
	for i, ms := range parent {
		packed, err := setrecon.MultisetToSet(ms)
		if err != nil {
			return nil, fmt.Errorf("child %d: %w", i, err)
		}
		out[i] = packed
	}
	return out, nil
}

func unpackChildren(parent [][]uint64) ([][]uint64, error) {
	out := make([][]uint64, len(parent))
	for i, packed := range parent {
		var err error
		if out[i], err = setrecon.SetToMultiset(packed); err != nil {
			return nil, fmt.Errorf("child %d: %w", i, err)
		}
	}
	return out, nil
}

func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
