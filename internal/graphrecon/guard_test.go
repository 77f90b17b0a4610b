package graphrecon

import (
	"testing"

	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/raceflag"
	"sosr/internal/transport"
)

// TestNeighborhoodFailureGuard holds the degree-neighbourhood scheme to what
// its signature shape may and may not change. NeighborhoodSigShape hands the
// cascade h = the largest packed signature either party holds and nothing on
// top, so the 10·d·m budget no longer buys a level per doubling of itself: at
// the benchmark's instance — G(128, ½), m = 96, one edit — a session was
// 660 000 B where it had been 2 814 089, and since protoVersion 8, which
// keys a level by whole signatures wherever they are narrower than child
// IBLTs, the mean over the trials below is 161 330 B (506 902 at version 7).
// Over fresh graphs and fresh coins no session that reports success may
// return a graph other than Alice's, at most one in two hundred may fail, and
// the mean session stays under a ceiling about a third over the measured
// mean, so the slack cannot come back unnoticed.
func TestNeighborhoodFailureGuard(t *testing.T) {
	const (
		n, m, d = 128, 96, 1
		ceiling = 215_000
	)
	trials := 200
	if testing.Short() || raceflag.Enabled {
		trials = 30
	}
	src := prng.New(0x19f1)
	failed, bytes := 0, 0
	for trial := 0; trial < trials; trial++ {
		base := graph.Gnp(n, 0.5, src)
		for !areNeighborhoodsDisjoint(base, m, 8*d+1) {
			base = graph.Gnp(n, 0.5, src)
		}
		ga, _ := graph.Perturb(base, d, src)
		rec, st, err := NeighborhoodRecon(transport.New(), hashing.NewCoins(src.Uint64()), ga, base, NeighborhoodParams{M: m, D: d})
		switch {
		case err != nil:
			t.Logf("trial %d failed: %v", trial, err)
			failed++
		case !graph.IsIsomorphic(rec, ga):
			t.Fatalf("trial %d: a session that reported success returned a graph other than Alice's", trial)
		default:
			bytes += st.TotalBytes
		}
	}
	mean := bytes / max(trials-failed, 1)
	t.Logf("%d sessions, %d failed, mean %d B a session (ceiling %d)", trials, failed, mean, ceiling)
	if failed*200 > trials {
		t.Errorf("%d of %d sessions failed, budget 0.5 %%", failed, trials)
	}
	if mean > ceiling {
		t.Errorf("mean session is %d B, ceiling %d", mean, ceiling)
	}
}
