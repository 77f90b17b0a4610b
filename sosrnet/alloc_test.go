package sosrnet

import (
	"context"
	"testing"

	"sosr"
	"sosr/internal/raceflag"
	"sosr/internal/workload"
)

// TestSetsOfSetsSessionAllocsIndependentOfS: the client canonicalises Bob's
// parent set into one arena, so a hot session — payload and sketch both cache
// hits — allocates the same handful of objects at 2 000 children as at 200.
// AllocsPerRun counts the serving goroutines' allocations too; they do not
// depend on s either. (Per-child canonicalisation cost ~3 allocations a
// child: +5 400 between these two sizes.) The count itself is budgeted: with
// the connection reused, frame buffers pooled and the cascade decode on a
// pooled workspace, a hot session is its JSON control frames, its result and
// little else — 44 objects on both ends together, where a connection per
// session cost 208.
func TestSetsOfSetsSessionAllocsIndependentOfS(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds buffers and workspaces under the race detector")
	}
	cfg := sosr.Config{Seed: 7, Protocol: sosr.ProtocolCascade, KnownDiff: 32}
	session := func(s int) float64 {
		alice, bob := workload.PlantedSetsOfSets(17, s, 10, 1<<32, 16)
		_, addr, _ := startServer(t, func(srv *Server) {
			if err := srv.HostSetsOfSets("docs", alice); err != nil {
				t.Fatal(err)
			}
		})
		c := Dial(addr)
		t.Cleanup(func() { c.Close() })
		run := func() {
			if _, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill both caches
		return testing.AllocsPerRun(20, run)
	}
	small, large := session(200), session(2000)
	t.Logf("hot cascade session allocs/op: s=200 %.0f, s=2000 %.0f", small, large)
	if large > small+40 {
		t.Fatalf("session allocations grow with s: %.0f at s=200, %.0f at s=2000", small, large)
	}
	if small > 100 {
		t.Fatalf("hot cascade session allocates %.0f objects at s=200, budget 100", small)
	}
}
