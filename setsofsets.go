package sosr

import (
	"fmt"

	"sosr/internal/core"
	"sosr/internal/hashing"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Protocol selects a sets-of-sets reconciliation algorithm (§3, Table 1).
type Protocol int

// The four protocol families of the paper.
const (
	// ProtocolAuto picks Cascade for known d and MultiRound for unknown d —
	// the communication-optimal defaults from Table 1.
	ProtocolAuto Protocol = iota
	// ProtocolNaive treats child sets as opaque items (Theorems 3.3/3.4):
	// simplest and fastest, O(d̂·min(h log u, u)) bits.
	ProtocolNaive
	// ProtocolNested is Algorithm 1, IBLTs of IBLTs (Theorem 3.5 /
	// Corollary 3.6): O(d̂·d log u + d̂ log s) bits in one round.
	ProtocolNested
	// ProtocolCascade is Algorithm 2, cascading IBLTs of IBLTs (Theorem 3.7
	// / Corollary 3.8): O(d log min(d,h) log u + d log s) bits in one round.
	ProtocolCascade
	// ProtocolMultiRound is the 3/4-round protocol (Theorems 3.9/3.10):
	// least communication for large h, at the cost of extra rounds.
	ProtocolMultiRound
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtocolAuto:
		return "auto"
	case ProtocolNaive:
		return "naive"
	case ProtocolNested:
		return "nested"
	case ProtocolCascade:
		return "cascade"
	case ProtocolMultiRound:
		return "multiround"
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// Config configures sets-of-sets reconciliation. MaxChildSets (s) and
// MaxChildSize (h) describe the instance shape both parties agree on.
type Config struct {
	// Seed seeds the shared public coins.
	Seed uint64
	// MaxChildSets is s, the maximum number of child sets per parent.
	MaxChildSets int
	// MaxChildSize is h, the maximum elements per child set.
	MaxChildSize int
	// Universe is u; elements lie in [0, Universe). 0 means the full 2^60
	// range. Small universes let the naive protocol use bitmap encodings.
	Universe uint64
	// Protocol selects the algorithm; see the Protocol constants.
	Protocol Protocol
	// KnownDiff bounds d, the total element differences under the minimum
	// difference matching. 0 runs the unknown-d variant (estimators or
	// repeated doubling, per protocol).
	KnownDiff int
	// KnownChildDiff optionally bounds d̂, the number of differing child
	// sets; 0 derives min(d, s).
	KnownChildDiff int
	// Replicas amplifies known-d runs by replication with fresh coins
	// (§3.2); 0 means 3. Each failed attempt re-transmits, and all attempts
	// count toward Stats.
	Replicas int
	// Validate rejects malformed inputs (non-canonical or duplicate child
	// sets, bound violations) before running. Costs one pass over the data.
	Validate bool
}

// Result reports a one-way sets-of-sets reconciliation.
type Result struct {
	// Recovered is Bob's reconstruction of Alice's parent set, child sets in
	// canonical order.
	Recovered [][]uint64
	// Added are Alice's child sets Bob lacked; Removed are Bob's child sets
	// Alice lacked.
	Added, Removed [][]uint64
	// Stats covers all attempts, including retries.
	Stats Stats
	// Attempts counts protocol attempts (replication or doubling).
	Attempts int
	// Protocol is the algorithm that actually ran.
	Protocol Protocol
}

// ReconcileSetsOfSets runs the paper's primary contribution: Bob (second
// argument) recovers Alice's parent set of child sets. Child sets may be
// passed unsorted; each must be duplicate-free within the parent. cfg resolves
// against the instance — its shape, Validate, the protocol Auto picks, d̂ and
// the replication of known-d runs — before anything is encoded.
func ReconcileSetsOfSets(alice, bob [][]uint64, cfg Config) (*Result, error) {
	p, err := sosShape(cfg, alice, bob)
	if err != nil {
		return nil, err
	}
	if cfg.Validate {
		if err := core.Validate(alice, p); err != nil {
			return nil, err
		}
		if err := core.Validate(bob, p); err != nil {
			return nil, err
		}
	}
	d := cfg.KnownDiff
	proto := cfg.Protocol
	if proto == ProtocolAuto {
		proto = ProtocolMultiRound
		if d > 0 {
			proto = ProtocolCascade
		}
	}
	if proto < ProtocolNaive || proto > ProtocolMultiRound {
		return nil, fmt.Errorf("sosr: unknown protocol %v", proto)
	}
	dHat := cfg.KnownChildDiff
	if dHat <= 0 {
		dHat = core.DHat(max(d, 1), p.S)
	}
	run := func(sess *transport.Session, c hashing.Coins) (*core.Result, error) {
		switch proto {
		case ProtocolNaive:
			if d > 0 {
				return core.NaiveKnownD(sess, c, alice, bob, p, dHat)
			}
			return core.NaiveUnknownD(sess, c, alice, bob, p)
		case ProtocolNested:
			if d > 0 {
				return core.NestedKnownD(sess, c, alice, bob, p, d, dHat)
			}
			return core.NestedUnknownD(sess, c, alice, bob, p)
		case ProtocolCascade:
			if d > 0 {
				return core.CascadeKnownD(sess, c, alice, bob, p, d)
			}
			return core.CascadeUnknownD(sess, c, alice, bob, p)
		}
		if d > 0 {
			return core.MultiRoundKnownD(sess, c, alice, bob, p, d)
		}
		return core.MultiRoundUnknownD(sess, c, alice, bob, p)
	}
	sess, coins := transport.New(), hashing.NewCoins(cfg.Seed)
	var res *core.Result
	if d > 0 {
		replicas := cfg.Replicas
		if replicas <= 0 {
			replicas = 3
		}
		res, err = core.Replicated(sess, coins, replicas, run)
	} else {
		res, err = run(sess, coins)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Recovered: res.Recovered,
		Added:     res.Added,
		Removed:   res.Removed,
		Stats:     res.Stats,
		Attempts:  res.Attempts,
		Protocol:  proto,
	}, nil
}

// SetsOfSetsDistance computes the paper's ground-truth d between two parent
// sets: the minimum-cost child matching under symmetric-difference costs
// (§3.1). Local computation, O(s³) — for sizing, testing and experiments.
func SetsOfSetsDistance(a, b [][]uint64) int { return core.Distance(a, b) }

// sosShape resolves the instance shape of a run: the bounds cfg sets, and for
// those it leaves zero the parties' own sizes. A bound set below either
// party's data is refused as core.ErrInvalidInstance, Validate or not: the
// encoders size their keys from the shape.
func sosShape(cfg Config, alice, bob [][]uint64) (core.Params, error) {
	p := core.Params{S: cfg.MaxChildSets, H: cfg.MaxChildSize, U: cfg.Universe}
	if p.S <= 0 {
		p.S = max(len(alice), len(bob), 1)
	}
	if p.H <= 0 {
		p.H = setutil.MaxChildLen(alice, bob)
	}
	if cfg.MaxChildSets > 0 || cfg.MaxChildSize > 0 {
		for _, parent := range [][][]uint64{alice, bob} {
			if err := p.Fits(parent); err != nil {
				return p, err
			}
		}
	}
	return p, nil
}
