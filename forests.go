package sosr

import (
	"sosr/internal/forest"
	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/transport"
)

// Forest is a rooted forest: Parent[v] is v's parent vertex or -1 for roots.
// Edges implicitly point away from roots (§6's directed-forest view).
type Forest struct {
	Parent []int32
}

func (f Forest) toInternal() *forest.Forest {
	return &forest.Forest{Parent: append([]int32(nil), f.Parent...)}
}

// Depth returns σ: the maximum vertices on a root-to-leaf path.
func (f Forest) Depth() int { return f.toInternal().Depth() }

// Validate reports whether the parent pointers form a legal rooted forest.
func (f Forest) Validate() error { return f.toInternal().Validate() }

// ForestConfig configures forest reconciliation (Theorem 6.1).
type ForestConfig struct {
	// Seed seeds the shared public coins.
	Seed uint64
	// MaxEdits is d, the bound on forest edge edits. Every session runs
	// verified doubling over the signature budget, one round trip per
	// attempt; d caps it at Theorem 6.1's budget 4·d·(σ+2)+16. The last
	// attempt has the plan and budget of the theorem's one-round message,
	// under the attempt's own coins, so a session fails with no higher
	// probability than that message, and one that needs a smaller budget
	// sends less. 0 leaves the cap at 2^20.
	MaxEdits int
	// Depth is σ, the maximum tree depth across both forests; 0 derives it.
	Depth int
}

// ForestResult reports a one-way forest reconciliation: Recovered is
// isomorphic to Alice's forest.
type ForestResult struct {
	Recovered Forest
	Stats     Stats
}

// ReconcileForests runs Theorem 6.1 under verified doubling (see
// ForestConfig.MaxEdits): Bob (second argument) recovers a forest isomorphic
// to Alice's, with communication O(dσ log(dσ) log n).
func ReconcileForests(alice, bob Forest, cfg ForestConfig) (*ForestResult, error) {
	fa, fb := alice.toInternal(), bob.toInternal()
	if err := fa.Validate(); err != nil {
		return nil, err
	}
	if err := fb.Validate(); err != nil {
		return nil, err
	}
	sched := forest.NewSchedule(forest.Measure(fa), forest.Measure(fb), forest.ReconParams{Sigma: cfg.Depth, D: cfg.MaxEdits}, 0)
	rec, st, err := forest.ReconAuto(transport.New(), hashing.NewCoins(cfg.Seed), fa, fb, sched)
	if err != nil {
		return nil, err
	}
	return &ForestResult{Recovered: Forest{Parent: rec.Parent}, Stats: st}, nil
}

// ForestsIsomorphic decides rooted-forest isomorphism exactly (AHU canonical
// labels) — verification, not a protocol.
func ForestsIsomorphic(a, b Forest) bool {
	return forest.IsIsomorphic(a.toInternal(), b.toInternal())
}

// RandomForest samples a rooted forest on n vertices; rootProb controls how
// many trees it splinters into.
func RandomForest(n int, rootProb float64, seed uint64) Forest {
	f := forest.Random(n, rootProb, prng.New(seed))
	return Forest{Parent: f.Parent}
}

// PerturbForest applies exactly k forest-preserving edge edits (§6's update
// model: deletions make the child a root; insertions attach a root beneath a
// vertex of another tree).
func PerturbForest(f Forest, k int, seed uint64) Forest {
	out := forest.Perturb(f.toInternal(), k, prng.New(seed))
	return Forest{Parent: out.Parent}
}
