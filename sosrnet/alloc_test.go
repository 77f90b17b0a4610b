package sosrnet

import (
	"context"
	"runtime/debug"
	"testing"

	"sosr"
	"sosr/internal/raceflag"
	"sosr/internal/workload"
)

// TestSetsOfSetsSessionAllocsIndependentOfS: the client reads Bob's canonical
// parent set in place, so a hot session — payload and sketch both cache hits
// — allocates the same objects at 2 000 children as at 200. AllocsPerRun
// counts the serving goroutines' allocations too; they do not depend on s
// either. (Per-child canonicalisation cost ~3 allocations a child: +5 400
// between these two sizes.) The count itself is budgeted: with the connection
// reused, frame buffers pooled, the cascade decode on a pooled workspace, the
// control frames encoded into and parsed out of the connection's own memory,
// the session records kept by the connection (server) and the kind's apply
// (client), and the result packed once, a hot session is its result and
// nothing else — 6 objects on both ends together: core's Result with its one
// arena and one header slice, the apply, the sosr.Result and the NetStats.
// It was 15 with a record, a plan and an apply apart, a copy of the input
// and an arena per list; 44 with JSON control frames and 208 with a
// connection per session. The collector is held off while counting: a
// collection empties the sync.Pools, and refilling them costs objects at a
// rate set by the bytes a session allocates, which at s = 2 000 — ten times
// the result — shows as a fraction of an object per session. The config
// leaves s, h and u to derive, so every hello carries cs, ch and cu, and both
// ends run core's shape rule over their own data each session: a pass that
// allocates nothing.
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
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(20, run)
	}
	small, large := session(200), session(2000)
	t.Logf("hot cascade session allocs/op: s=200 %.0f, s=2000 %.0f", small, large)
	if large != small {
		t.Fatalf("session allocations depend on s: %.0f at s=200, %.0f at s=2000", small, large)
	}
	if small > 7 {
		t.Fatalf("hot cascade session allocates %.0f objects, budget 7", small)
	}
}

// coldLegBudgets are the objects one cold session may allocate on both ends
// together, per leg of the benchmark's cold_kinds_tcp cycle at its shapes:
// fresh public coins, so the server's payload cache and the client's sketch
// cache both miss and every encode and decode runs. Each budget is 15 % over
// the most the leg measured in ten runs. The comments give that range, then
// what the leg measured before each result was packed once, the input read
// in place and the session records kept by the apply and the connection; at
// the budgets' previous ratchet, before the caches reused the calls nobody
// waited on and the connections kept every label they received; while the
// control frames were JSON — some 20 objects a session — and before the
// encodes and decodes moved onto pooled workspaces. What is left is the
// session's spans-off bookkeeping, the result and the cache entries (reused
// only once a ghost ring has forgotten a budget's worth of bytes, which this
// test does not reach); per table, per level, per pair, per point, per
// control field or per label, nothing.
var coldLegBudgets = map[string]float64{
	"set-iblt":       11, // 8–9, was 15, was 17, was 18–19, was 39, was 62
	"set-charpoly":   15, // 12–13, was 18, was 20, was 21–22, was 42, was 97
	"set-estimator":  13, // 9–11, was 16–18, was 18–20, was 19–21, was 43, was 74
	"multiset":       12, // 9–10, was 14, was 16, was 17, was 38, was 54
	"sos-naive":      23, // 19–20, was 28, was 32–33, was 33–34, was 57, was 112
	"sos-nested":     23, // 19–20, was 28–29, was 33, was 33–34, was 58, was 125
	"sos-cascade":    23, // 19–20, was 28–29, was 32–33, was 37–38, was 61, was 125
	"sos-multiround": 18, // 14–15, was 24–25, was 26–27, was 27–29, was 51, was 763
	"graph-degree":   23, // 20, was 23–24, was 25, was 25–26, was 48, was 94
	"forest":         28, // 23–24, was 31, was 32–33, was 33–34, was 55, was 168
}

func TestColdSessionAllocBudgets(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds buffers and workspaces under the race detector")
	}
	setA, setB := seqSet(0, 20000), append(seqSet(16, 20000), seqSet(100000, 100016)...)
	polyA, polyB := seqSet(0, 2000), append(seqSet(8, 2000), seqSet(100000, 100008)...)
	multiA := append(seqSet(0, 1500), seqSet(0, 700)...)
	multiB := append(seqSet(4, 1500), seqSet(0, 700)...)
	sosA, sosB := workload.PlantedSetsOfSets(1, 200, 10, 1<<32, 16)
	base, degH, err := sosr.PlantedSeparatedGraph(480, 2, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	degA, degB := sosr.PerturbGraph(base, 1, 12), sosr.PerturbGraph(base, 1, 13)
	forA := sosr.RandomForest(600, 0.2, 51)
	forB := sosr.PerturbForest(forA, 3, 52)
	srv, addr, _ := startServer(t, func(s *Server) {
		for _, err := range []error{
			s.HostSets("set", setA), s.HostSets("poly", polyA), s.HostMultiset("multi", multiA),
			s.HostSetsOfSets("sos", sosA), s.HostGraph("deg", degA), s.HostForest("forest", forA),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	c := Dial(addr)
	c.CacheBytes = 4 << 20
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	seed := uint64(1000)
	sos := func(proto sosr.Protocol, d int) func() error {
		return func() error {
			_, _, err := c.SetsOfSets(ctx, "sos", sosB, sosr.Config{Seed: seed, Protocol: proto, KnownDiff: d})
			return err
		}
	}
	rotated := uint64(0) // the char-poly payload ignores the seed: the hosted set moves instead
	legs := []struct {
		name string
		run  func() error
	}{
		{"set-iblt", func() error {
			_, _, err := c.Sets(ctx, "set", setB, sosr.SetConfig{Seed: seed, KnownDiff: 32})
			return err
		}},
		{"set-charpoly", func() error {
			old, fresh := 1<<40+rotated, 1<<40+rotated+1
			rotated++
			if err := srv.UpdateSets("poly", []uint64{fresh}, []uint64{old}); err != nil {
				return err
			}
			_, _, err := c.Sets(ctx, "poly", polyB, sosr.SetConfig{Seed: seed, KnownDiff: 18, UseCharPoly: true})
			return err
		}},
		{"set-estimator", func() error { _, _, err := c.Sets(ctx, "set", setB, sosr.SetConfig{Seed: seed}); return err }},
		{"multiset", func() error { _, _, err := c.Multiset(ctx, "multi", multiB, 16, seed); return err }},
		{"sos-naive", sos(sosr.ProtocolNaive, 16)},
		{"sos-nested", sos(sosr.ProtocolNested, 16)},
		{"sos-cascade", sos(sosr.ProtocolCascade, 16)},
		{"sos-multiround", sos(sosr.ProtocolMultiRound, 0)},
		{"graph-degree", func() error {
			_, _, err := c.Graph(ctx, "deg", degB, sosr.GraphConfig{Seed: seed, Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: degH})
			return err
		}},
		{"forest", func() error {
			_, _, err := c.Forest(ctx, "forest", forB, sosr.ForestConfig{Seed: seed, MaxEdits: 3, Depth: 16})
			return err
		}},
	}
	total := 0.0
	for _, leg := range legs {
		failed := 0
		run := func() {
			seed += 4
			// The protocols are randomised; a decode failure is a caller's
			// retry, and its objects count as the benchmark counts them.
			if err := leg.run(); err != nil {
				failed++
			}
		}
		run() // connections, pools and lazily built state
		got := testing.AllocsPerRun(10, run)
		total += got
		t.Logf("%-15s %6.0f allocs/session (budget %.0f, %d of 11 failed)", leg.name, got, coldLegBudgets[leg.name], failed)
		if failed > 3 {
			t.Errorf("%s: %d of 11 sessions failed", leg.name, failed)
		}
		if got > coldLegBudgets[leg.name] {
			t.Errorf("%s: a cold session allocates %.0f objects, budget %.0f", leg.name, got, coldLegBudgets[leg.name])
		}
	}
	t.Logf("cycle total %.0f allocs (was 227, was 253, was 490, was 1 674)", total)
}

// TestCtlCodecAllocationFree: the control plane of a reused connection
// allocates nothing. Every frame is encoded into the connection's scratch and
// parsed in place into the session's record; names travel as codes, and the
// one free-text field of a healthy session — the hello's dataset name — is
// compared with the string the connection's last hello left and kept when it
// matches. Only the first session of a connection pays for the scratch and the
// name.
func TestCtlCodecAllocationFree(t *testing.T) {
	var scratch []byte
	var dataset string
	var h helloMsg
	var acc acceptMsg
	var done doneMsg
	session := func() {
		scratch = appendCtl(scratch[:0], helloFields, &goldenHello)
		h = helloMsg{Dataset: dataset} // a new session's record, as Server.handshake seeds it
		if err := parseCtl(helloFields, scratch, &h); err != nil || h != goldenHello {
			t.Fatalf("hello came back as %+v (%v)", h, err)
		}
		dataset = h.Dataset
		scratch = appendCtl(scratch[:0], acceptFields, &goldenAccept)
		if err := parseCtl(acceptFields, scratch, &acc); err != nil || acc != goldenAccept {
			t.Fatalf("accept came back as %+v (%v)", acc, err)
		}
		scratch = appendCtl(scratch[:0], doneFields, &goldenDone)
		if err := parseCtl(doneFields, scratch, &done); err != nil || done != goldenDone {
			t.Fatalf("done came back as %+v (%v)", done, err)
		}
	}
	session()
	if n := testing.AllocsPerRun(100, session); n != 0 {
		t.Fatalf("the control frames of a session on a reused connection allocate %.0f objects, want 0", n)
	}
}
