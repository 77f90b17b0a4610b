package forest

import (
	"errors"
	"math/bits"
	"sync/atomic"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/raceflag"
	"sosr/internal/transport"
)

// The failure guard of the signature collection's shape. Plan hands the
// cascade h = the largest M_v either party holds and nothing on top; what
// that buys is bytes (⌈log₂ h⌉ levels and a T* where ⌈log₂ budget⌉ levels
// went), and what it must not cost is a decode. Each row below is a family of
// instances reconciled under fresh forests and fresh coins per trial, held to
// three things: no reconciliation that reports success returns a forest other
// than Alice's; the known-d protocol fails at most once in two hundred (the
// doubling one, never: it retries until Bob verifies, within the attempts the
// wire flow allows); and the mean session stays under a byte ceiling about a
// third over what the row measured when it was written — well below what the
// same row cost when h carried twice the budget (in comments), so that slack
// cannot come back unnoticed.
type guardRow struct {
	name string
	// trials at full size; a seventh of it under -short and under the race
	// detector.
	trials int
	// instance draws Alice's and Bob's forests and the parameters they
	// reconcile under. A zero D selects the doubling protocol.
	instance func(src *prng.Source) (fa, fb *Forest, p ReconParams)
	// tstar says whether the row's budget reaches h, so that the cascade's last
	// table T* of full encodings is present: asserted, so the rows keep
	// covering both forms of the payload.
	tstar bool
	// ceiling bounds the mean bytes of a session.
	ceiling int
}

// perturbed is the common instance: a random forest and k edits of it.
func perturbed(n int, rootProb float64, k int, p ReconParams) func(*prng.Source) (*Forest, *Forest, ReconParams) {
	return func(src *prng.Source) (*Forest, *Forest, ReconParams) {
		for {
			fa := Random(n, rootProb, src)
			fb := Perturb(fa, k, src)
			if p.Sigma == 0 || max(fa.Depth(), fb.Depth()) < p.Sigma {
				return fa, fb, p
			}
		}
	}
}

// editsUnderOneVertex applies k edits that all change one vertex's child list:
// its children are cut loose and roots of other trees hung under it, so one
// M_v differs by k elements where Perturb spreads k edits over k of them.
func editsUnderOneVertex(n, k int) func(*prng.Source) (*Forest, *Forest, ReconParams) {
	return func(src *prng.Source) (*Forest, *Forest, ReconParams) {
		fa := Random(n, 0.2, src)
		fb := fa.Clone()
		hub := src.Intn(n)
		for done := 0; done < k; {
			v := src.Intn(n)
			switch {
			case fb.Parent[v] == int32(hub):
				fb.Parent[v] = -1
				done++
			case fb.Parent[v] < 0 && v != hub && fb.RootOf(hub) != v:
				fb.Parent[v] = int32(hub)
				done++
			}
		}
		return fa, fb, ReconParams{D: k}
	}
}

var guardRows = []guardRow{
	// The benchmark's forest leg: 379 436 B a session, 860 933 before.
	{"bench", 600, perturbed(600, 0.2, 3, ReconParams{Sigma: 16, D: 3}), true, 520_000},
	// 521 515, was 1 344 227.
	{"deep", 250, perturbed(300, 0.02, 5, ReconParams{D: 5}), true, 700_000},
	// 455 011, was 1 392 773.
	{"flat", 200, perturbed(1000, 0.6, 8, ReconParams{D: 8}), true, 610_000},
	// 145 907, was 281 314.
	{"one-edit", 100, perturbed(2000, 0.2, 1, ReconParams{D: 1}), true, 195_000},
	// 539 214, was 1 546 239.
	{"eight-edits", 150, perturbed(200, 0.3, 8, ReconParams{D: 8}), true, 720_000},
	// One root and n − 1 leaves: h = n + 1 is far above the budget, so there is
	// no T*, the one large M_v rides the cascade's levels, and the payload is
	// what it was, 174 877.
	{"star", 150, func(src *prng.Source) (*Forest, *Forest, ReconParams) {
		fa := star(400)
		return fa, Perturb(fa, 2, src), ReconParams{D: 2}
	}, false, 235_000},
	// One path: σ = n, and a cut re-signs every vertex above it. 145 596, was
	// 2 038 581.
	{"path", 150, func(src *prng.Source) (*Forest, *Forest, ReconParams) {
		fa := chain(64)
		return fa, Perturb(fa, 2, src), ReconParams{D: 2}
	}, true, 195_000},
	// 587 495, was 1 480 387.
	{"one-vertex", 200, editsUnderOneVertex(600, 6), true, 785_000},
	// The doubling protocol plans every attempt for a budget of its own, from
	// 16 up. A session that ends on its first attempts now carries a T*
	// (16 ≥ h) where it had a fourth level — 39 067 and 40 107 B, were 38 294
	// and 38 997 — and one that must double in earnest, the path's five
	// attempts, stops adding a level per doubling: 309 669, was 945 030.
	{"doubling-bench", 120, perturbed(600, 0.2, 3, ReconParams{}), true, 52_000},
	{"doubling-deep", 120, perturbed(300, 0.02, 5, ReconParams{}), true, 54_000},
	{"doubling-path", 60, func(src *prng.Source) (*Forest, *Forest, ReconParams) {
		fa := chain(300)
		return fa, Perturb(fa, 4, src), ReconParams{}
	}, true, 415_000},
}

func TestFailureGuard(t *testing.T) {
	// What sosrnet's flow.limit allows a doubling session under the default
	// budget cap: budgets 16·2^k up to 1<<20.
	const maxBudget = 1 << 20
	doublingLimit := bits.Len(maxBudget / 16)
	small := testing.Short() || raceflag.Enabled
	var total, knownD, knownDFailed atomic.Int64
	// The rows run side by side inside one group, so that what follows the
	// group sees all of them finished.
	t.Run("rows", func(t *testing.T) {
		for i, row := range guardRows {
			trials := row.trials
			if small {
				trials = (trials + 6) / 7
			}
			t.Run(row.name, func(t *testing.T) {
				t.Parallel()
				src := prng.New(0x19f0 + uint64(i))
				failed, bytes, attempts, known := 0, 0, 0, false
				for trial := 0; trial < trials; trial++ {
					fa, fb, p := row.instance(src)
					coins := hashing.NewCoins(src.Uint64())
					var rec *Forest
					var st transport.Stats
					var err error
					if known = p.D > 0; known {
						rp, shape := Plan(Measure(fa), Measure(fb), p)
						if tstar := rp.Budget >= shape.H; tstar != row.tstar {
							t.Fatalf("trial %d: budget %d against h = %d: T* present = %v, the row wants %v", trial, rp.Budget, shape.H, tstar, row.tstar)
						}
						rec, st, err = Recon(transport.New(), coins, fa, fb, p)
					} else {
						rec, st, err = ReconAuto(transport.New(), coins, fa, fb, maxBudget)
						// An attempt is Alice's two messages and Bob's verdict.
						attempts = max(attempts, st.Messages/3)
						if err != nil || attempts > doublingLimit {
							t.Fatalf("trial %d: doubling ended after %d attempts (limit %d): %v", trial, st.Messages/3, doublingLimit, err)
						}
					}
					switch {
					case err == nil && !IsIsomorphic(rec, fa):
						t.Fatalf("trial %d: a reconciliation that reported success returned a forest other than Alice's", trial)
					case err == nil:
						bytes += st.TotalBytes
					case errors.Is(err, ErrBudget) || errors.Is(err, ErrRebuild):
						failed++
					default:
						t.Fatalf("trial %d: unclassified failure: %v", trial, err)
					}
				}
				mean := bytes / max(trials-failed, 1)
				t.Logf("%s: %d trials, %d failed, mean %d B a session (ceiling %d), at most %d doubling attempts", row.name, trials, failed, mean, row.ceiling, attempts)
				if mean > row.ceiling {
					t.Errorf("mean session is %d B, ceiling %d", mean, row.ceiling)
				}
				total.Add(int64(trials))
				if known {
					knownD.Add(int64(trials))
					knownDFailed.Add(int64(failed))
				}
			})
		}
	})
	if !small && total.Load() < 2000 {
		t.Errorf("the guard ran %d trials at full size, want at least 2 000", total.Load())
	}
	if knownDFailed.Load()*200 > knownD.Load() {
		t.Errorf("%d of %d known-d reconciliations failed, budget 0.5 %%", knownDFailed.Load(), knownD.Load())
	}
}
