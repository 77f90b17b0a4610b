// Package core implements the paper's primary contribution: reconciliation
// of sets of sets (§3). Alice and Bob each hold a parent set of at most s
// child sets, each child set containing at most h elements from a universe
// of size u; the total number of element differences under the minimum
// difference matching between their child sets is d, and at most
// d̂ = min(d, s) child sets differ. At the end of every protocol Bob holds
// Alice's parent set (one-way reconciliation, §1).
//
// Four protocol families are provided, matching the paper's Table 1 rows:
//
//   - Naive (Theorems 3.3/3.4): child sets treated as opaque items.
//   - Nested, "IBLTs of IBLTs" (Algorithm 1, Theorem 3.5; unknown-d
//     doubling per Corollary 3.6).
//   - Cascade, "Cascading IBLTs of IBLTs" (Algorithm 2, Theorem 3.7;
//     unknown-d doubling per Corollary 3.8).
//   - MultiRound (Theorems 3.9/3.10): three or four rounds, estimator-based
//     pair matching, per-pair IBLT or characteristic-polynomial recovery.
//
// The three one-round families are one construction (§3.2 grows Theorem 3.3
// into 3.5 into 3.7), held as one plan (plan.go): the ordered parent tables
// both parties derive from (kind, coins, p, d, d̂) — each keyed by whole child
// sets or by (child IBLT, hash) pairs — with the message layout and transport
// label. Alice's build, Bob's one decode, Bob's sketch, the live digest and
// the size and bound arithmetic are loops over a plan's tables. plan.init is
// the only code that asks which theorem it serves, so a cell rule, coin label
// or key codec changes there and nowhere else.
//
// All cross-party data moves through transport.Session as serialized bytes;
// the Stats on each Result are therefore honest measurements.
package core

import (
	"errors"
	"fmt"
	"slices"

	"sosr/internal/hashing"
	"sosr/internal/matching"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Params describes the sets-of-sets instance shape both parties agree on
// out of band (the paper's s, h and u).
type Params struct {
	// S is the maximum number of child sets in a parent set.
	S int
	// H is the maximum child set size.
	H int
	// U is the universe size: elements lie in [0, U). Zero means the full
	// 2^60 range supported by the characteristic-polynomial substrate.
	U uint64
}

// Normalized returns p with defaults filled and bounds sanity-checked — the
// same normalization every engine applies internally, exported so split-party
// callers (e.g. the sosrnet handshake) resolve the exact shape the engines
// will use.
func (p Params) Normalized() (Params, error) { return p.normalized() }

// normalized fills defaults and sanity-checks.
func (p Params) normalized() (Params, error) {
	if p.U == 0 {
		p.U = setutil.MaxElement + 1
	}
	if p.S <= 0 || p.H <= 0 {
		return p, errors.New("core: Params.S and Params.H must be positive")
	}
	if p.U > setutil.MaxElement+1 {
		return p, fmt.Errorf("core: universe %d exceeds %d", p.U, setutil.MaxElement+1)
	}
	return p, nil
}

// Fits reports, as ErrInvalidInstance, a parent set the shape cannot hold:
// more than S child sets, or a child set of more than H elements. Encoders
// size their fixed-width keys and count fields from the shape, so data
// beyond it must be refused before it reaches one.
func (p Params) Fits(parent [][]uint64) error {
	if len(parent) > p.S {
		return fmt.Errorf("%w: %d child sets exceeds S=%d", ErrInvalidInstance, len(parent), p.S)
	}
	for i, cs := range parent {
		if len(cs) > p.H {
			return fmt.Errorf("%w: child %d has %d elements, H=%d", ErrInvalidInstance, i, len(cs), p.H)
		}
	}
	return nil
}

// Result reports a completed sets-of-sets reconciliation.
type Result struct {
	// Recovered is Bob's reconstruction of Alice's parent set, with child
	// sets in canonical (lexicographic) order.
	Recovered [][]uint64
	// Added are Alice's child sets Bob did not have (the paper's D_A);
	// Removed are Bob's child sets not present at Alice (D_B).
	Added, Removed [][]uint64
	// Stats summarizes communication for the whole run (including retries).
	Stats transport.Stats
	// Attempts counts protocol attempts (>1 for doubling/replication runs).
	Attempts int
	// DUsed is the difference bound the (final) successful attempt used.
	DUsed int
	// PeelIterations counts IBLT peel steps Bob performed (parent tables plus
	// child-recovery subtractions) — a decode-effort signal for observability.
	PeelIterations int
}

// Common protocol errors.
var (
	// ErrParentDecode indicates the parent-level structure failed to peel.
	ErrParentDecode = errors.New("core: parent IBLT decode failed")
	// ErrChildDecode indicates some differing child set of Alice's could not
	// be recovered against any of Bob's candidates.
	ErrChildDecode = errors.New("core: child set recovery failed")
	// ErrVerify indicates the recovered parent set did not match Alice's
	// verification hash.
	ErrVerify = errors.New("core: recovered set of sets failed verification")
	// ErrInvalidInstance indicates malformed input (non-canonical or
	// duplicate child sets, or size bounds exceeded).
	ErrInvalidInstance = errors.New("core: invalid sets-of-sets instance")
	// ErrGaveUp indicates a doubling/replicated run exhausted its attempts.
	ErrGaveUp = errors.New("core: exhausted retry attempts")
)

// Validate checks that parent is a legal instance under p: canonical,
// distinct child sets within bounds.
func Validate(parent [][]uint64, p Params) error {
	p, err := p.normalized()
	if err != nil {
		return err
	}
	if err := p.Fits(parent); err != nil {
		return err
	}
	seen := make(map[uint64][]uint64, len(parent))
	for i, cs := range parent {
		if !setutil.IsCanonical(cs) {
			return fmt.Errorf("%w: child %d not canonical", ErrInvalidInstance, i)
		}
		for _, x := range cs {
			if x >= p.U {
				return fmt.Errorf("%w: element %d outside universe %d", ErrInvalidInstance, x, p.U)
			}
		}
		h := setutil.Hash(0xd15717c7, cs)
		if prev, dup := seen[h]; dup && setutil.Equal(prev, cs) {
			return fmt.Errorf("%w: duplicate child set at index %d", ErrInvalidInstance, i)
		}
		seen[h] = cs
	}
	return nil
}

// Distance returns the paper's ground-truth d between two parent sets: the
// minimum-cost matching where cost is the child symmetric difference and
// unmatched children pair with the empty set (§3.1). Exponential-free; used
// by tests, workloads and the experiment harness.
func Distance(a, b [][]uint64) int {
	return int(matching.SetOfSetsDistance(a, b, setutil.SymmetricDiff))
}

// DHat returns the default bound on differing child sets, min(d, s) (§3.1).
func DHat(d, s int) int {
	if d < s {
		return d
	}
	return s
}

// childHashLabel names the per-child-set hash role shared by protocols.
const childHashLabel = "core/childhash"

// parentVerifyLabel names the whole-parent verification hash role.
const parentVerifyLabel = "core/parentverify"

// childSeed derives the per-child-set hash role; the hash of a child set is
// setutil.Hash(childSeed(coins), cs). Callers hoist the seed and hash
// directly instead of re-deriving the role from coins for every child
// (Coins.Seed hashes its label string on each call).
func childSeed(coins hashing.Coins) uint64 { return coins.Seed(childHashLabel, 0) }

// parentHashScratch is the whole-parent verification hash, sorting the child
// hashes in scratch, which it returns (grown when short) for the workspace to
// keep.
func parentHashScratch(scratch []uint64, coins hashing.Coins, parent [][]uint64) (uint64, []uint64) {
	return setutil.HashSetOfSetsScratch(scratch, coins.Seed(parentVerifyLabel, 0), parent)
}

// packResult is a decode's Result. Recovered is Bob's final parent set — his
// children whose hash is not in removed, plus Alice's recovered children
// (added) — and Added and Removed are added and dB, each in canonical order.
// All three are copied into one element arena and cut from one header slice,
// capacity-capped: a Result is two allocations besides itself whatever the
// parent size, shares no memory with its inputs, and an append to one of its
// slices or children never writes into another.
func packResult(bob [][]uint64, bobHashes []uint64, removed map[uint64]bool, added, dB [][]uint64) *Result {
	total := 2*setutil.TotalSize(added) + setutil.TotalSize(dB)
	kept := 0
	for i, cs := range bob {
		if !removed[bobHashes[i]] {
			total += len(cs)
			kept++
		}
	}
	arena := make([]uint64, 0, total)
	heads := make([][]uint64, 0, kept+2*len(added)+len(dB))
	pack := func(cs []uint64) {
		m := len(arena)
		arena = append(arena, cs...)
		heads = append(heads, arena[m:len(arena):len(arena)])
	}
	// cut returns the headers packed since from, sorted and capped.
	cut := func(from int) [][]uint64 {
		part := heads[from:len(heads):len(heads)]
		slices.SortFunc(part, slices.Compare)
		return part
	}
	for i, cs := range bob {
		if !removed[bobHashes[i]] {
			pack(cs)
		}
	}
	for _, cs := range added {
		pack(cs)
	}
	res := &Result{Recovered: cut(0)}
	n := len(heads)
	for _, cs := range added {
		pack(cs)
	}
	res.Added = cut(n)
	n = len(heads)
	for _, cs := range dB {
		pack(cs)
	}
	res.Removed = cut(n)
	return res
}
