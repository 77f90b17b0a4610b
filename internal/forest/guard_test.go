package forest

import (
	"errors"
	"sync/atomic"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/raceflag"
	"sosr/internal/transport"
)

// The failure guard of the signature collection's shape and of the schedule
// every session runs. Plan hands the cascade h = the largest M_v either party
// holds and nothing on top; what that buys is bytes (⌈log₂ h⌉ levels, ending
// in a level of whole child sets, where ⌈log₂ budget⌉ levels went), and what
// it must not cost is a decode. Each row below is a family of instances
// reconciled under fresh forests and fresh coins per trial, through ReconAuto
// and the Schedule a session derives — capped at Plan's budget when the row
// bounds the edits, at 2^20 when it does not — and held to three things: no
// reconciliation that reports success returns a forest other than Alice's; a
// row with an edit bound fails at most once in two hundred (one without,
// never: it retries until Bob verifies); and the mean session stays under a
// byte ceiling about a third over what the row measures since protoVersion 9.
// The comments keep what each row cost before: at version 8, when a known
// bound sent Recon's one message at Plan's budget; at version 7; and when h
// carried twice the budget, so that slack cannot come back unnoticed.
type guardRow struct {
	name string
	// trials at full size; a seventh of it under -short and under the race
	// detector.
	trials int
	// instance draws Alice's and Bob's forests and the parameters they
	// reconcile under. A zero D selects the doubling protocol.
	instance func(src *prng.Source) (fa, fb *Forest, p ReconParams)
	// tstar says whether the row's budget reaches h, so that the cascade ends
	// in a table of whole child sets, where the paper puts T*: asserted, so the
	// rows keep covering both forms of the payload.
	tstar bool
	// ceiling bounds the mean bytes of a session.
	ceiling int
	// atCap says every success of the row must come on the schedule's last
	// attempt, at exactly its cap.
	atCap bool
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

// broomCut draws a broom — a spine of n vertices, the i-th holding i + 1
// leaves, so that no two spine vertices root the same shape — under a random
// labelling, and cuts its bottom spine vertex loose: every spine vertex
// re-signs. Its one edit needs a budget above 16 (which decoded it under none
// of 40 coins) and at most 28 (which decoded it under all of 100).
func broomCut(n int) func(*prng.Source) (*Forest, *Forest, ReconParams) {
	return func(src *prng.Source) (*Forest, *Forest, ReconParams) {
		f := New(n + n*(n+1)/2)
		v := n
		for i := 0; i < n; i++ {
			if i > 0 {
				f.Parent[i] = int32(i - 1)
			}
			for j := 0; j <= i; j, v = j+1, v+1 {
				f.Parent[v] = int32(i)
			}
		}
		cut := f.Clone()
		cut.Parent[n-1] = -1
		perm := src.Perm(f.N())
		relabel := func(f *Forest) *Forest {
			out := New(f.N())
			for v, p := range f.Parent {
				if p >= 0 {
					out.Parent[perm[v]] = int32(perm[p])
				}
			}
			return out
		}
		return relabel(f), relabel(cut), ReconParams{D: 1, Budget: 28}
	}
}

var guardRows = []guardRow{
	// The benchmark's forest leg: 6 715 B a session, 82 615 at version 8,
	// 288 846 at version 7, 860 933 when h carried the budget.
	{"bench", 600, perturbed(600, 0.2, 3, ReconParams{Sigma: 16, D: 3}), true, 9_000, false},
	// 7 323, 117 960 at version 8, 397 000 at version 7, was 1 344 227.
	{"deep", 250, perturbed(300, 0.02, 5, ReconParams{D: 5}), true, 9_800, false},
	// 5 133, 89 949 at version 8, 346 001 at version 7, was 1 392 773.
	{"flat", 200, perturbed(1000, 0.6, 8, ReconParams{D: 8}), true, 6_900, false},
	// 8 251, 36 360 at version 8, 111 193 at version 7, was 281 314.
	{"one-edit", 100, perturbed(2000, 0.2, 1, ReconParams{D: 1}), true, 11_000, false},
	// 5 522, 108 635 at version 8, 410 235 at version 7, was 1 546 239.
	{"eight-edits", 150, perturbed(200, 0.3, 8, ReconParams{D: 8}), true, 7_400, false},
	// One root and n − 1 leaves: h = n + 1 is far above every budget, so
	// every level keeps its child keys and the one large M_v rides the
	// cascade's levels. 31 041, 135 068 at version 8, 174 877 before
	// version 6.
	{"star", 150, func(src *prng.Source) (*Forest, *Forest, ReconParams) {
		fa := star(400)
		return fa, Perturb(fa, 2, src), ReconParams{D: 2}
	}, false, 41_500, false},
	// One path: σ = n, and a cut re-signs every vertex above it, so a session
	// takes up to three attempts. 5 730, 17 217 at version 8, 109 445 at
	// version 7, was 2 038 581.
	{"path", 150, func(src *prng.Source) (*Forest, *Forest, ReconParams) {
		fa := chain(64)
		return fa, Perturb(fa, 2, src), ReconParams{D: 2}
	}, true, 7_700, false},
	// 6 592, 126 706 at version 8, 447 193 at version 7, was 1 480 387.
	{"one-vertex", 200, editsUnderOneVertex(600, 6), true, 8_800, false},
	// Without a bound every attempt plans for a budget of its own, from 16
	// up. A session that ends on its first attempts ends its cascade in a
	// whole-set level (16 ≥ h) where it had a fourth child level — 6 700 and
	// 6 836 B, 30 253 and 31 468 at version 7, 38 294 and 38 997 before — and
	// one that must double in earnest, the path's five attempts, stops adding
	// a level per doubling: 46 322, 233 078 at version 7, was 945 030.
	{"doubling-bench", 120, perturbed(600, 0.2, 3, ReconParams{}), true, 9_000, false},
	{"doubling-deep", 120, perturbed(300, 0.02, 5, ReconParams{}), true, 9_200, false},
	{"doubling-path", 60, func(src *prng.Source) (*Forest, *Forest, ReconParams) {
		fa := chain(300)
		return fa, Perturb(fa, 4, src), ReconParams{}
	}, true, 62_000, false},
	// The cap binds: Plan's budget (28, passed as Budget) is no power of two
	// and the edit needs more than the 16 below it, so every session fails
	// its first attempt and succeeds on the last, at exactly the cap. A
	// schedule that stopped at the last power of two under its cap fails
	// every trial here. At an honest σ, Theorem 6.1's budget is far above
	// what any row above needed, so only a declared budget binds.
	// 64 926 B.
	{"cap", 60, broomCut(34), false, 86_500, true},
}

func TestFailureGuard(t *testing.T) {
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
					a, b := Measure(fa), Measure(fb)
					// The schedule a session runs: the cap is Plan's
					// budget when p bounds the edits, 2^20 otherwise.
					sched := NewSchedule(a, b, p, 0)
					if known = p.D > 0; known {
						rp, shape := Plan(a, b, p)
						if rp.Budget != sched.Cap {
							t.Fatalf("trial %d: the schedule's cap is %d, Plan's budget %d", trial, sched.Cap, rp.Budget)
						}
						if tstar := rp.Budget >= shape.H; tstar != row.tstar {
							t.Fatalf("trial %d: budget %d against h = %d: T* present = %v, the row wants %v", trial, rp.Budget, shape.H, tstar, row.tstar)
						}
					}
					rec, st, err := ReconAuto(transport.New(), coins, fa, fb, sched)
					// An attempt is Alice's two messages and Bob's verdict.
					ran := st.Messages / 3
					attempts = max(attempts, ran)
					if row.atCap && err == nil && (ran != sched.Attempts() || sched.Ask(ran-1).Budget != sched.Cap) {
						t.Fatalf("trial %d: succeeded on attempt %d of %d, the row must need the one at its cap %d", trial, ran, sched.Attempts(), sched.Cap)
					}
					switch {
					case err == nil && !IsIsomorphic(rec, fa):
						t.Fatalf("trial %d: a reconciliation that reported success returned a forest other than Alice's", trial)
					case err == nil:
						bytes += st.TotalBytes
					case known && (errors.Is(err, ErrBudget) || errors.Is(err, ErrRebuild)):
						failed++
					default:
						t.Fatalf("trial %d: %v", trial, err)
					}
				}
				mean := bytes / max(trials-failed, 1)
				t.Logf("%s: %d trials, %d failed, mean %d B a session (ceiling %d), at most %d attempts", row.name, trials, failed, mean, row.ceiling, attempts)
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
