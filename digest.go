package sosr

import (
	"fmt"

	"sosr/internal/core"
	"sosr/internal/hashing"
	"sosr/internal/setutil"
)

// Split-party deployment. ReconcileSetsOfSets simulates both parties in one
// process; for real two-machine use, the one-round protocols factor into an
// Alice-side digest and a Bob-side application:
//
//	// Machine A:
//	digest, _ := sosr.BuildDigest(aliceParent, cfg)
//	send(digest) // over your own channel
//
//	// Machine B (same cfg.Seed):
//	res, err := sosr.ApplyDigest(digest, bobParent, cfg)
//
// The digest is self-describing (protocol, shape, bounds); only the seed
// travels out of band. len(digest) is exactly the communication the
// simulated runs report for the same configuration.

// BuildDigest computes Alice's one-message payload for a one-round protocol
// (Naive, Nested or Cascade; Auto means Cascade). cfg.KnownDiff must be a
// positive bound — unknown-d variants need interaction and cannot be a
// single digest.
func BuildDigest(alice [][]uint64, cfg Config) ([]byte, error) {
	kind, p, err := digestPlan(alice, nil, cfg)
	if err != nil {
		return nil, err
	}
	return core.BuildDigest(kind, hashing.NewCoins(cfg.Seed), alice, p, cfg.KnownDiff, cfg.KnownChildDiff)
}

// ApplyDigest runs Bob's side of a received digest, returning his
// reconstruction of Alice's parent set. cfg.Seed must match the builder's.
func ApplyDigest(digest []byte, bob [][]uint64, cfg Config) (*Result, error) {
	res, err := core.ApplyDigest(digest, hashing.NewCoins(cfg.Seed), bob)
	if err != nil {
		return nil, err
	}
	return &Result{
		Recovered: res.Recovered,
		Added:     res.Added,
		Removed:   res.Removed,
		Stats:     Stats{Rounds: 1, TotalBytes: len(digest), AliceBytes: len(digest), Messages: 1},
		Attempts:  1,
		Protocol:  cfg.Protocol,
	}, nil
}

// DigestSize predicts len(BuildDigest(...)) from the configuration alone,
// for communication planning.
func DigestSize(cfg Config) (int, error) {
	kind, p, err := digestPlan(nil, nil, cfg)
	if err != nil {
		return 0, err
	}
	return core.DigestSize(kind, p, cfg.KnownDiff, cfg.KnownChildDiff)
}

// DigestBuilder maintains a one-round digest under live child-set updates,
// so a syncing system pays O(update) per change instead of rebuilding over
// the whole parent set before every exchange. Snapshot output is
// byte-identical to BuildDigest over the current contents.
type DigestBuilder struct {
	inner *core.IncrementalDigest
}

// NewDigestBuilder creates an empty builder. cfg must carry explicit
// MaxChildSets, MaxChildSize and KnownDiff (the shape cannot be derived
// from inputs that do not exist yet).
func NewDigestBuilder(cfg Config) (*DigestBuilder, error) {
	if cfg.MaxChildSets <= 0 || cfg.MaxChildSize <= 0 {
		return nil, fmt.Errorf("sosr: DigestBuilder requires MaxChildSets and MaxChildSize")
	}
	kind, p, err := digestPlan(nil, nil, cfg)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewIncrementalDigest(kind, hashing.NewCoins(cfg.Seed), p, cfg.KnownDiff, cfg.KnownChildDiff)
	if err != nil {
		return nil, err
	}
	return &DigestBuilder{inner: inner}, nil
}

// Add inserts a child set (canonical, not already present).
func (b *DigestBuilder) Add(childSet []uint64) error { return b.inner.Add(childSet) }

// Remove deletes a previously added child set.
func (b *DigestBuilder) Remove(childSet []uint64) error { return b.inner.Remove(childSet) }

// Len returns the number of child sets currently represented.
func (b *DigestBuilder) Len() int { return b.inner.Len() }

// Snapshot emits the current digest for ApplyDigest.
func (b *DigestBuilder) Snapshot() []byte { return b.inner.Snapshot() }

// BuildDiffProbe is Bob's half of the split-party unknown-difference flow:
// a compact set-difference estimator over his child-set hashes. Alice feeds
// it to EstimateDiffFromProbe and then builds a digest with the returned
// bound (Theorem 3.4's two-message structure, split across machines).
func BuildDiffProbe(bob [][]uint64, cfg Config) []byte {
	p := core.Params{S: cfg.MaxChildSets, H: cfg.MaxChildSize, U: cfg.Universe}
	if p.S <= 0 {
		p.S = max(len(bob), 1)
	}
	if p.H <= 0 {
		p.H = setutil.MaxChildLen(bob)
	}
	return core.BuildChildDiffProbe(hashing.NewCoins(cfg.Seed), bob, p)
}

// EstimateDiffFromProbe merges Bob's probe with Alice's child-set hashes and
// returns a safe bound on the number of differing child sets, suitable as
// Config.KnownChildDiff for a subsequent BuildDigest. Never fails: a garbled
// probe degrades the bound to the worst case, not correctness.
func EstimateDiffFromProbe(probe []byte, alice [][]uint64, cfg Config) int {
	p := core.Params{S: cfg.MaxChildSets, H: cfg.MaxChildSize, U: cfg.Universe}
	if p.S <= 0 {
		p.S = max(len(alice), 1)
	}
	if p.H <= 0 {
		p.H = setutil.MaxChildLen(alice)
	}
	return core.EstimateChildDiff(probe, hashing.NewCoins(cfg.Seed), alice, p)
}

func digestPlan(alice, bob [][]uint64, cfg Config) (core.DigestKind, core.Params, error) {
	if cfg.KnownDiff <= 0 {
		return 0, core.Params{}, fmt.Errorf("sosr: digests require KnownDiff > 0 (unknown-d protocols are interactive)")
	}
	p, err := sosShape(cfg, alice, bob)
	if err != nil {
		return 0, core.Params{}, err
	}
	switch cfg.Protocol {
	case ProtocolNaive:
		return core.DigestNaive, p, nil
	case ProtocolNested:
		return core.DigestNested, p, nil
	case ProtocolCascade, ProtocolAuto:
		return core.DigestCascade, p, nil
	default:
		return 0, core.Params{}, fmt.Errorf("sosr: protocol %v has no single-message digest", cfg.Protocol)
	}
}
