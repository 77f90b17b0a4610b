package sosrnet

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"sosr"
	"sosr/internal/obs"
	"sosr/internal/setutil"
	"sosr/internal/transport"
	"sosr/internal/wire"
	"sosr/internal/workload"
)

// TestCallerMayMutateAfterSession: a client reads a canonical local in place
// for the length of a call and keeps nothing of it afterwards. A caller that
// rewrites its local in place between sessions gets the exact result for
// what it holds at each call; an earlier result does not move; and the
// sketch cache reports a build or a patch for every rewritten parent, never a
// hit on the sketch of what the slice held before. Concurrent sessions may
// share one local, read-only (run under -race).
func TestCallerMayMutateAfterSession(t *testing.T) {
	setA, setB := setPair()
	sosA, sosB := workload.PlantedSetsOfSets(17, 200, 10, 1<<32, 16)
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", setA); err != nil {
			t.Fatal(err)
		}
		if err := s.HostSetsOfSets("docs", sosA); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	c.Timeout = time.Minute
	c.Obs = obs.NewRegistry()
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	// A pinned shape: the sketch key does not move with the data.
	sosCfg := sosr.Config{Seed: 9, Protocol: sosr.ProtocolCascade, KnownDiff: 32, MaxChildSets: 200, MaxChildSize: setutil.MaxChildLen(sosA, sosB), Universe: 1 << 41}
	setCfg := sosr.SetConfig{Seed: 9, KnownDiff: 16}
	local := setutil.CanonicalSets(sosB) // canonical: read in place
	localSet := setutil.Clone(setB)

	// rewrite overwrites, in place, the largest element of two children and
	// of the set: each stays canonical and as long, and within the bounds.
	rewrite := func(round int) {
		for _, cs := range local[:2] {
			cs[len(cs)-1] = 1<<40 + uint64(round)
		}
		localSet[len(localSet)-1] = 20_000 + uint64(round)
	}
	type earlier struct {
		sos  *sosr.Result
		want [3][][]uint64
		set  *sosr.SetResult
		was  [3][]uint64
	}
	var kept []earlier
	const rounds = 4
	for r := 0; r < rounds; r++ {
		if r > 0 {
			rewrite(r)
		}
		sos, _, err := c.SetsOfSets(ctx, "docs", local, sosCfg)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if !setutil.EqualSetOfSets(sos.Recovered, sosA) {
			t.Fatalf("round %d: recovered parent is not the server's", r)
		}
		set, _, err := c.Sets(ctx, "ids", localSet, setCfg)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if !reflect.DeepEqual(set.Recovered, setA) {
			t.Fatalf("round %d: recovered set is not the server's", r)
		}
		kept = append(kept, earlier{
			sos: sos, want: [3][][]uint64{setutil.CloneSets(sos.Recovered), setutil.CloneSets(sos.Added), setutil.CloneSets(sos.Removed)},
			set: set, was: [3][]uint64{setutil.Clone(set.Recovered), setutil.Clone(set.OnlyA), setutil.Clone(set.OnlyB)},
		})
	}
	rewrite(rounds)
	for r, k := range kept {
		if !reflect.DeepEqual(k.want, [3][][]uint64{k.sos.Recovered, k.sos.Added, k.sos.Removed}) ||
			!reflect.DeepEqual(k.was, [3][]uint64{k.set.Recovered, k.set.OnlyA, k.set.OnlyB}) {
			t.Fatalf("round %d's result changed when the caller rewrote its local", r)
		}
	}
	// Round 0 builds a sketch that keeps no parent, round 1 builds its
	// successor, which keeps a copy, and every later round patches that copy.
	m := registrySamples(t, c.Obs)
	hit, build, patch := m[`sosr_decodecache_events_total{event="hit"}`], m[`sosr_decodecache_events_total{event="miss"}`], m[`sosr_decodecache_events_total{event="patch"}`]
	if hit != 0 || build != 2 || patch != rounds-2 {
		t.Fatalf("decode-cache events over %d rewritten parents: %v hits, %v builds, %v patches; want 0, 2, %d", rounds, hit, build, patch, rounds-2)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				sos, _, err := c.SetsOfSets(ctx, "docs", local, sosCfg)
				if err != nil || !setutil.EqualSetOfSets(sos.Recovered, sosA) {
					t.Errorf("concurrent sets-of-sets session: %v", err)
					return
				}
				set, _, err := c.Sets(ctx, "ids", localSet, setCfg)
				if err != nil || !reflect.DeepEqual(set.Recovered, setA) {
					t.Errorf("concurrent set session: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIdleConnectionRecordHoldsNothing: a connection keeps its session record
// for the next session, and the record is cleared when a session's books are
// closed — after a session of each kind on a connection that stays open, it
// holds no dataset view, no plan and no span.
func TestIdleConnectionRecordHoldsNothing(t *testing.T) {
	setA, setB := setPair()
	sosA, sosB := sosPair()
	fa := sosr.RandomForest(60, 0.2, 51)
	fb := sosr.PerturbForest(fa, 2, 52)
	srv := NewServer()
	srv.Trace = &obs.Tracer{SampleRate: 1}
	for _, err := range []error{srv.HostSets("ids", setA), srv.HostSetsOfSets("docs", sosA), srv.HostForest("tree", fa)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	client, server := net.Pipe()
	sc := &srvConn{conn: server, remote: "pipe", ep: wire.NewEndpoint(server, transport.Alice)}
	c := Dial("pipe")
	c.Timeout = time.Minute
	c.dial = func(context.Context, string) (net.Conn, error) { return client, nil }
	t.Cleanup(func() { c.Close(); server.Close() })
	ctx := context.Background()
	for i, run := range []func() error{
		func() error {
			_, _, err := c.Sets(ctx, "ids", setB, sosr.SetConfig{Seed: 3, KnownDiff: 16})
			return err
		},
		func() error {
			_, _, err := c.SetsOfSets(ctx, "docs", sosB, sosr.Config{Seed: 3, Protocol: sosr.ProtocolCascade, KnownDiff: 24})
			return err
		},
		func() error {
			_, _, err := c.Forest(ctx, "tree", fb, sosr.ForestConfig{Seed: 53, MaxEdits: 2, Depth: 16})
			return err
		},
	} {
		sc.seq = i + 1
		reusable := make(chan bool, 1)
		go func() { reusable <- srv.session(sc) }()
		if err := run(); err != nil {
			t.Fatalf("session %d: %v", i+1, err)
		}
		if !<-reusable {
			t.Fatalf("session %d: the connection was not kept", i+1)
		}
		rec := &sc.rec
		if rec.view.ds != nil || rec.view.sos != nil || rec.view.set != nil || rec.view.f != nil || rec.plan != nil || rec.sp != nil || rec.tr.stage != nil {
			t.Fatalf("session %d: the idle connection's record still holds a view of %q, plan %v, span %v", i+1, rec.view.name, rec.plan, rec.sp)
		}
		if !reflect.ValueOf(*rec).IsZero() {
			t.Fatalf("session %d: the idle connection's record is not cleared: %+v", i+1, *rec)
		}
	}
}
