package sosr

import (
	"fmt"

	"sosr/internal/core"
	"sosr/internal/hashing"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Depth-3 reconciliation — sets of sets of sets — implements the recursion
// the paper sketches as future work at the end of §3.2 ("creating IBLTs of
// structures representing sets of sets as IBLTs of IBLTs ... to reconcile
// sets of sets of sets").

// Config3 configures depth-3 reconciliation.
type Config3 struct {
	// Seed seeds the shared public coins.
	Seed uint64
	// MaxGroups, MaxChildSets, MaxChildSize bound the instance shape
	// (derived from the inputs when zero).
	MaxGroups, MaxChildSets, MaxChildSize int
	// KnownDiff bounds the total element differences under the recursive
	// minimum matching (required; use SetsOfSetsOfSetsDistance for ground
	// truth in tests).
	KnownDiff int
	// Replicas amplifies by replication with fresh coins; 0 means 3.
	Replicas int
}

// Result3 reports a depth-3 reconciliation.
type Result3 struct {
	// Recovered is Bob's reconstruction of Alice's grandparent set.
	Recovered [][][]uint64
	// AddedGroups / RemovedGroups are the group-level diff.
	AddedGroups, RemovedGroups [][][]uint64
	Stats                      Stats
	Attempts                   int
}

// ReconcileSetsOfSetsOfSets runs the depth-3 protocol: Bob (second argument)
// recovers Alice's grandparent set in one round per attempt, with
// communication driven by the three difference bounds rather than the data
// size.
func ReconcileSetsOfSetsOfSets(alice, bob [][][]uint64, cfg Config3) (*Result3, error) {
	// The data's own shape: what a zero bound derives, and what a set bound
	// must cover (the encoders size their count fields from the shape).
	data := core.Params3{G: max(len(alice), len(bob), 1), S: 1, H: 1}
	for _, gp := range [][][][]uint64{alice, bob} {
		for _, group := range gp {
			data.S = max(data.S, len(group))
			data.H = max(data.H, setutil.MaxChildLen(group))
		}
	}
	p := core.Params3{G: cfg.MaxGroups, S: cfg.MaxChildSets, H: cfg.MaxChildSize}
	for _, b := range []struct {
		name      string
		set       *int
		dataBound int
	}{{"MaxGroups", &p.G, data.G}, {"MaxChildSets", &p.S, data.S}, {"MaxChildSize", &p.H, data.H}} {
		if *b.set <= 0 {
			*b.set = b.dataBound
		} else if *b.set < b.dataBound {
			return nil, fmt.Errorf("%w: %s=%d is below the data's %d", core.ErrInvalidInstance, b.name, *b.set, b.dataBound)
		}
	}
	b := core.Bounds3{D: cfg.KnownDiff}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 3
	}
	coins := hashing.NewCoins(cfg.Seed)
	sess := transport.New()
	var res *core.Result3
	var lastErr error
	attempts := 0
	for r := 0; r < replicas; r++ {
		attempts++
		out, err := core.Nested3KnownD(sess, coins.Sub("replica3", r), alice, bob, p, b)
		if err == nil {
			res = out
			break
		}
		lastErr = err
	}
	if res == nil {
		return nil, lastErr
	}
	return &Result3{
		Recovered:     res.Recovered,
		AddedGroups:   res.AddedGroups,
		RemovedGroups: res.RemovedGroups,
		Stats:         sess.Stats(),
		Attempts:      attempts,
	}, nil
}

// SetsOfSetsOfSetsDistance computes the recursive ground-truth difference
// between two grandparent sets (minimum group matching over sets-of-sets
// distances).
func SetsOfSetsOfSetsDistance(a, b [][][]uint64) int { return core.Distance3(a, b) }
