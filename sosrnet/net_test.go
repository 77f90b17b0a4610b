package sosrnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/setutil"
	"sosr/internal/wire"
	"sosr/internal/workload"
	"sosr/internal/worktest"
)

// startServer hosts datasets via configure and serves on a loopback
// listener, returning the dial address and the counting listener (the
// independent TCP byte/accept counters).
func startServer(t *testing.T, configure func(*Server)) (*Server, string, *worktest.Listener) {
	t.Helper()
	srv := NewServer()
	configure(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &worktest.Listener{Listener: ln}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(cl) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String(), cl
}

// waitFor polls cond until it holds or the deadline passes.
var waitFor = worktest.WaitFor

func seqSet(lo, hi uint64) []uint64 {
	out := make([]uint64, 0, hi-lo)
	for x := lo; x < hi; x++ {
		out = append(out, x)
	}
	return out
}

// setPair returns two sets differing in exactly 10 elements.
func setPair() (alice, bob []uint64) {
	alice = seqSet(100, 900)
	bob = append(append([]uint64{}, alice[5:]...), 10_000, 10_001, 10_002, 10_003, 10_004)
	return alice, bob
}

func checkNetStats(t *testing.T, ns *NetStats, want sosr.Stats) {
	t.Helper()
	if ns.Protocol != want {
		t.Fatalf("protocol stats diverge from in-process run:\n  wire: %+v\n  sim:  %+v", ns.Protocol, want)
	}
	if ns.WireIn+ns.WireOut != int64(want.TotalBytes)+ns.Overhead {
		t.Fatalf("wire accounting inconsistent: in=%d out=%d payload=%d overhead=%d",
			ns.WireIn, ns.WireOut, want.TotalBytes, ns.Overhead)
	}
	if ns.Overhead <= 0 {
		t.Fatalf("overhead %d", ns.Overhead)
	}
}

func TestSetsOverTCP(t *testing.T) {
	alice, bob := setPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	c.Timeout = 30 * time.Second
	cases := []sosr.SetConfig{
		{Seed: 7, KnownDiff: 16},
		{Seed: 8}, // unknown d: estimator round first
		{Seed: 9, KnownDiff: 12, UseCharPoly: true}, // Theorem 2.3
	}
	for _, cfg := range cases {
		want, err := sosr.ReconcileSets(alice, bob, cfg)
		if err != nil {
			t.Fatalf("in-process %+v: %v", cfg, err)
		}
		got, ns, err := c.Sets(context.Background(), "ids", bob, cfg)
		if err != nil {
			t.Fatalf("wire %+v: %v", cfg, err)
		}
		if !reflect.DeepEqual(got.Recovered, setutil.Canonical(alice)) {
			t.Fatalf("%+v: client did not recover the server's set", cfg)
		}
		if !reflect.DeepEqual(got.OnlyA, want.OnlyA) || !reflect.DeepEqual(got.OnlyB, want.OnlyB) {
			t.Fatalf("%+v: decoded difference diverges", cfg)
		}
		checkNetStats(t, ns, want.Stats)
	}
}

func TestMultisetOverTCP(t *testing.T) {
	alice := []uint64{1, 1, 1, 2, 5, 5, 9, 9, 9, 9, 40}
	bob := []uint64{1, 1, 2, 2, 5, 9, 9, 9, 9, 40, 41}
	const d = 16
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostMultiset("bag", alice); err != nil {
			t.Fatal(err)
		}
	})
	wantRec, wantStats, err := sosr.ReconcileMultisets(alice, bob, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, ns, err := Dial(addr).Multiset(context.Background(), "bag", bob, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantRec) {
		t.Fatalf("recovered multiset %v, want %v", got, wantRec)
	}
	checkNetStats(t, ns, wantStats)

	// diffBound ≤ 0 must run the estimator variant, not deadlock waiting
	// for a payload the server won't send until it sees a probe.
	c := Dial(addr)
	c.Timeout = 10 * time.Second
	gotU, nsU, err := c.Multiset(context.Background(), "bag", bob, 0, 4)
	if err != nil {
		t.Fatalf("unknown-d multiset: %v", err)
	}
	if !reflect.DeepEqual(gotU, wantRec) {
		t.Fatalf("unknown-d recovered %v, want %v", gotU, wantRec)
	}
	if nsU.Protocol.Rounds != 2 || nsU.Protocol.BobBytes == 0 {
		t.Fatalf("unknown-d flow did not run the estimator round: %+v", nsU.Protocol)
	}
}

// TestMultisetUnknownBoundMatchesInProcess: with no bound (diffBound 0) the
// in-process call runs what the wire runs — the estimator round, then a table
// sized by its estimate — so a packed difference of 40, well past the floor
// table a zero bound would size, recovers the same multiset from the same
// protocol bytes both ways.
func TestMultisetUnknownBoundMatchesInProcess(t *testing.T) {
	var alice, bob []uint64
	for x := uint64(0); x < 300; x++ {
		k := 1 + int(x%3)
		for i := 0; i < k; i++ {
			alice = append(alice, x)
		}
		if x < 20 {
			k++ // one more occurrence: two packed-set differences
		}
		for i := 0; i < k; i++ {
			bob = append(bob, x)
		}
	}
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostMultiset("bag", alice); err != nil {
			t.Fatal(err)
		}
	})
	want, wantStats, err := sosr.ReconcileMultisets(alice, bob, 0, 5)
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}
	got, ns, err := Dial(addr).Multiset(context.Background(), "bag", bob, 0, 5)
	if err != nil {
		t.Fatalf("wire: %v", err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, alice) {
		t.Fatalf("recovered multisets differ: wire %d elements, in-process %d, hosted %d", len(got), len(want), len(alice))
	}
	checkNetStats(t, ns, wantStats)
	if wantStats.Rounds != 2 {
		t.Fatalf("in-process run took %d rounds, want the estimator's 2", wantStats.Rounds)
	}
}

// TestNegativeBoundsMeanUnset: the in-process API reads a negative bound,
// shape, replica count or depth as unset, and so must the wire — the client
// sends it as 0, where the server would refuse the negative number. Each row
// sets one field to −1; the in-process call and the session recover the same
// data with the same protocol Stats.
func TestNegativeBoundsMeanUnset(t *testing.T) {
	setA, setB := setPair()
	bagA, bagB := []uint64{1, 1, 1, 2, 5, 5, 9, 40}, []uint64{1, 1, 2, 2, 5, 9, 40, 41}
	sosA, sosB := sosPair()
	forA := sosr.RandomForest(120, 0.15, 51)
	forB := sosr.PerturbForest(forA, 3, 52)
	_, addr, _ := startServer(t, func(s *Server) {
		for _, err := range []error{
			s.HostSets("ids", setA), s.HostMultiset("bag", bagA),
			s.HostSetsOfSets("docs", sosA), s.HostForest("tree", forA),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	c := Dial(addr)
	c.Timeout = 60 * time.Second
	ctx := context.Background()
	type run func() (recovered any, st sosr.Stats, err error)
	for _, row := range []struct {
		field         string
		local, remote run
	}{
		{"SetConfig.KnownDiff", func() (any, sosr.Stats, error) {
			r, err := sosr.ReconcileSets(setA, setB, sosr.SetConfig{Seed: 1, KnownDiff: -1})
			if err != nil {
				return nil, sosr.Stats{}, err
			}
			return r.Recovered, r.Stats, nil
		}, func() (any, sosr.Stats, error) {
			r, ns, err := c.Sets(ctx, "ids", setB, sosr.SetConfig{Seed: 1, KnownDiff: -1})
			if err != nil {
				return nil, sosr.Stats{}, err
			}
			return r.Recovered, ns.Protocol, nil
		}},
		{"multiset diffBound", func() (any, sosr.Stats, error) {
			return sosr.ReconcileMultisets(bagA, bagB, -1, 2)
		}, func() (any, sosr.Stats, error) {
			r, ns, err := c.Multiset(ctx, "bag", bagB, -1, 2)
			if err != nil {
				return nil, sosr.Stats{}, err
			}
			return r, ns.Protocol, nil
		}},
	} {
		checkSameRun(t, row.field, row.local, row.remote)
	}
	for _, row := range []struct {
		field string
		cfg   sosr.Config
	}{
		{"Config.KnownDiff", sosr.Config{Seed: 3, Protocol: sosr.ProtocolCascade, KnownDiff: -1}},
		{"Config.KnownChildDiff", sosr.Config{Seed: 4, Protocol: sosr.ProtocolNested, KnownDiff: 24, KnownChildDiff: -1}},
		{"Config.Replicas", sosr.Config{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: 24, Replicas: -1}},
		{"Config.MaxChildSets", sosr.Config{Seed: 6, Protocol: sosr.ProtocolCascade, KnownDiff: 24, MaxChildSets: -1}},
		{"Config.MaxChildSize", sosr.Config{Seed: 7, Protocol: sosr.ProtocolCascade, KnownDiff: 24, MaxChildSize: -1}},
	} {
		checkSameRun(t, row.field, func() (any, sosr.Stats, error) {
			r, err := sosr.ReconcileSetsOfSets(sosA, sosB, row.cfg)
			if err != nil {
				return nil, sosr.Stats{}, err
			}
			return r.Recovered, r.Stats, nil
		}, func() (any, sosr.Stats, error) {
			r, ns, err := c.SetsOfSets(ctx, "docs", sosB, row.cfg)
			if err != nil {
				return nil, sosr.Stats{}, err
			}
			return r.Recovered, ns.Protocol, nil
		})
	}
	for _, row := range []struct {
		field string
		cfg   sosr.ForestConfig
	}{
		{"ForestConfig.MaxEdits", sosr.ForestConfig{Seed: 8, MaxEdits: -1}},
		{"ForestConfig.Depth", sosr.ForestConfig{Seed: 9, MaxEdits: 3, Depth: -1}},
	} {
		checkSameRun(t, row.field, func() (any, sosr.Stats, error) {
			r, err := sosr.ReconcileForests(forA, forB, row.cfg)
			if err != nil {
				return nil, sosr.Stats{}, err
			}
			return r.Recovered.Parent, r.Stats, nil
		}, func() (any, sosr.Stats, error) {
			r, ns, err := c.Forest(ctx, "tree", forB, row.cfg)
			if err != nil {
				return nil, sosr.Stats{}, err
			}
			return r.Recovered.Parent, ns.Protocol, nil
		})
	}
}

// checkSameRun runs one configuration in process and over the wire and
// requires the same recovered data and the same protocol Stats.
func checkSameRun(t *testing.T, name string, local, remote func() (any, sosr.Stats, error)) {
	t.Helper()
	want, wantStats, err := local()
	if err != nil {
		t.Fatalf("%s=-1 in process: %v", name, err)
	}
	got, gotStats, err := remote()
	if err != nil {
		t.Fatalf("%s=-1 over the wire: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s=-1: the wire recovered other data than the in-process run", name)
	}
	if gotStats != wantStats {
		t.Errorf("%s=-1: wire stats %+v, in-process %+v", name, gotStats, wantStats)
	}
}

func sosPair() (alice, bob [][]uint64) {
	return workload.PlantedSetsOfSets(17, 60, 8, 1<<32, 12)
}

func TestSetsOfSetsOverTCPAllProtocols(t *testing.T) {
	alice, bob := sosPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	c.Timeout = 60 * time.Second
	cases := []sosr.Config{
		{Seed: 1, Protocol: sosr.ProtocolNaive, KnownDiff: 24},
		{Seed: 2, Protocol: sosr.ProtocolNaive}, // probe + one shot
		{Seed: 3, Protocol: sosr.ProtocolNested, KnownDiff: 24},
		{Seed: 4, Protocol: sosr.ProtocolNested}, // doubling
		{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: 24},
		{Seed: 6, Protocol: sosr.ProtocolCascade}, // doubling
		{Seed: 7, Protocol: sosr.ProtocolMultiRound, KnownDiff: 24},
		{Seed: 8, Protocol: sosr.ProtocolMultiRound},          // 4-round
		{Seed: 9, Protocol: sosr.ProtocolAuto, KnownDiff: 24}, // = cascade
		{Seed: 10, Protocol: sosr.ProtocolCascade, KnownDiff: 24, MaxChildSets: 70, MaxChildSize: 9, Validate: true},
	}
	for _, cfg := range cases {
		name := fmt.Sprintf("%v/d=%d", cfg.Protocol, cfg.KnownDiff)
		want, err := sosr.ReconcileSetsOfSets(alice, bob, cfg)
		if err != nil {
			t.Fatalf("in-process %s: %v", name, err)
		}
		got, ns, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
		if err != nil {
			t.Fatalf("wire %s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Recovered, want.Recovered) {
			t.Fatalf("%s: recovered parent diverges from in-process run", name)
		}
		if !reflect.DeepEqual(got.Added, want.Added) || !reflect.DeepEqual(got.Removed, want.Removed) {
			t.Fatalf("%s: diff sets diverge", name)
		}
		if got.Attempts != want.Attempts {
			t.Fatalf("%s: attempts %d, want %d", name, got.Attempts, want.Attempts)
		}
		checkNetStats(t, ns, want.Stats)
	}
}

// TestEndToEndWireBytes is the acceptance check: a set-of-sets reconciles
// over real TCP, the client recovers the server's data exactly, and the
// measured TCP bytes equal the in-process Stats.TotalBytes plus the
// deterministic framing overhead, reconstructed frame by frame. It runs with
// the encode cache enabled (the default) and disabled, since cached payloads
// must be byte-identical to freshly encoded ones.
func TestEndToEndWireBytes(t *testing.T) {
	t.Run("cache-on", func(t *testing.T) { endToEndWireBytes(t, 0) })
	t.Run("cache-off", func(t *testing.T) { endToEndWireBytes(t, -1) })
}

func endToEndWireBytes(t *testing.T, cacheBytes int64) {
	alice, bob := sosPair()
	sessionDone := make(chan struct{}, 1)
	srv, addr, cl := startServer(t, func(s *Server) {
		s.CacheBytes = cacheBytes
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
		s.Logger = slog.New(worktest.Handler(func(r slog.Record) {
			if r.Message != "session finished" {
				return
			}
			select {
			case sessionDone <- struct{}{}:
			default:
			}
		}))
	})
	cfg := sosr.Config{Seed: 77, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	want, err := sosr.ReconcileSetsOfSets(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, ns, err := Dial(addr).SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recovered, want.Recovered) {
		t.Fatal("client did not recover the server's parent set")
	}
	if ns.Protocol != want.Stats {
		t.Fatalf("wire protocol stats %+v != in-process %+v", ns.Protocol, want.Stats)
	}

	// Reconstruct the session's frames to compute the exact expected
	// overhead: hello, accept and done control frames plus the framing
	// around the single cascade payload.
	_, need, _ := core.Params{}.Resolve(bob, core.Params{})
	shape, _, _ := core.Params{}.Resolve(alice, need)
	hello := helloMsg{
		V: protoVersion, Dataset: "docs", Kind: KindSetsOfSets, Seed: cfg.Seed,
		D: cfg.KnownDiff, Protocol: "cascade",
		CS: len(bob), CH: need.H, CU: need.U,
	}
	accept := acceptMsg{
		V: protoVersion, Kind: KindSetsOfSets, Protocol: "cascade",
		D: cfg.KnownDiff, DHat: 24, Replicas: 3,
		S: shape.S, H: shape.H, U: shape.U,
	}
	done := doneMsg{
		OK: true, Rounds: want.Stats.Rounds, Bytes: want.Stats.TotalBytes,
		Messages: want.Stats.Messages, Attempts: 1,
	}
	expectedOverhead := int64(wire.FrameSize(lblHello, len(appendCtl(nil, helloFields, &hello))) +
		wire.FrameSize(lblAccept, len(appendCtl(nil, acceptFields, &accept))) +
		wire.FrameSize(lblDone, len(appendCtl(nil, doneFields, &done))) +
		wire.Overhead("cascade-iblts"))
	if ns.Overhead != expectedOverhead {
		t.Fatalf("overhead %d, reconstructed %d", ns.Overhead, expectedOverhead)
	}
	// The listener-side counter is the ground truth for "bytes on the wire";
	// wait for the server to finish reading the session (it logs last).
	select {
	case <-sessionDone:
	case <-time.After(10 * time.Second):
		t.Fatal("server never finished the session")
	}
	if tcp := cl.Bytes.Load(); tcp != int64(want.Stats.TotalBytes)+expectedOverhead {
		t.Fatalf("TCP bytes %d != in-process payload %d + overhead %d",
			tcp, want.Stats.TotalBytes, expectedOverhead)
	}
	cs := srv.CacheStats()
	if cacheBytes < 0 {
		if cs.Misses != 0 || cs.Hits != 0 {
			t.Fatalf("disabled cache recorded traffic: %+v", cs)
		}
	} else if cs.Misses == 0 {
		t.Fatalf("enabled cache never consulted: %+v", cs)
	}
}

func TestGraphOverTCPDegreeOrdering(t *testing.T) {
	base, h, err := sosr.PlantedSeparatedGraph(600, 2, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ga := sosr.PerturbGraph(base, 1, 12)
	gb := sosr.PerturbGraph(base, 1, 13)
	cfg := sosr.GraphConfig{Seed: 14, Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: h}
	want, err := sosr.ReconcileGraphs(ga, gb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostGraph("net", ga); err != nil {
			t.Fatal(err)
		}
	})
	got, ns, err := Dial(addr).Graph(context.Background(), "net", gb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sosr.GraphsExactlyIsomorphic(got.Recovered, ga) {
		t.Fatal("recovered graph not isomorphic to the server's")
	}
	checkNetStats(t, ns, want.Stats)
}

func TestGraphOverTCPNeighborhood(t *testing.T) {
	for attempt := 0; attempt < 30; attempt++ {
		base := sosr.RandomGraph(128, 0.5, uint64(attempt)*7+1)
		m := 96
		if sosr.NeighborhoodDisjointness(base, m) < 9 {
			continue
		}
		ga := sosr.PerturbGraph(base, 1, 21)
		cfg := sosr.GraphConfig{Seed: 22, Scheme: sosr.SchemeDegreeNeighborhood, MaxEdits: 1, DegreeThreshold: m}
		want, err := sosr.ReconcileGraphs(ga, base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Byte parity must hold with the composite payload cache on (two
		// sessions, second replayed from memory) and off.
		for _, cacheBytes := range []int64{0, -1} {
			_, addr, _ := startServer(t, func(s *Server) {
				s.CacheBytes = cacheBytes
				if err := s.HostGraph("soc", ga); err != nil {
					t.Fatal(err)
				}
			})
			for i := 0; i < 2; i++ {
				got, ns, err := Dial(addr).Graph(context.Background(), "soc", base, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !sosr.GraphsExactlyIsomorphic(got.Recovered, ga) {
					t.Fatal("recovered graph not isomorphic to the server's")
				}
				checkNetStats(t, ns, want.Stats)
			}
		}
		return
	}
	t.Fatal("no disjoint base graph found")
}

// TestGraphOverTCPPolynomial: the §4 scheme is one 24-byte poly-recon frame
// on the graph kind. The client recovers a graph isomorphic to the server's,
// and the TCP bytes are the in-process Stats plus the framing of hello,
// accept, that frame and done, itemised.
func TestGraphOverTCPPolynomial(t *testing.T) {
	ga := sosr.RandomGraph(6, 0.5, 31)
	gb := sosr.PerturbGraph(ga, 2, 32)
	cfg := sosr.GraphConfig{Seed: 33, Scheme: sosr.SchemePolynomial, MaxEdits: 2}
	want, err := sosr.ReconcileGraphs(ga, gb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.TotalBytes != 24 {
		t.Fatalf("in-process poly-recon sent %d bytes, want 24", want.Stats.TotalBytes)
	}
	var finished atomic.Int64
	_, addr, cl := startServer(t, func(s *Server) {
		if err := s.HostGraph("tiny", ga); err != nil {
			t.Fatal(err)
		}
		s.Logger = slog.New(worktest.Handler(func(r slog.Record) {
			if r.Message == "session finished" {
				finished.Add(1)
			}
		}))
	})
	got, ns, err := Dial(addr).Graph(context.Background(), "tiny", gb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sosr.GraphsExactlyIsomorphic(got.Recovered, ga) {
		t.Fatal("recovered graph not isomorphic to the server's")
	}
	checkNetStats(t, ns, want.Stats)
	hello := helloMsg{V: protoVersion, Dataset: "tiny", Kind: KindGraph, Seed: cfg.Seed, D: 2, Scheme: "polynomial", N: gb.N}
	accept := acceptMsg{V: protoVersion, Kind: KindGraph, D: 2}
	done := doneMsg{OK: true, Rounds: 1, Bytes: 24, Messages: 1, Attempts: 1}
	framing := int64(wire.FrameSize(lblHello, len(appendCtl(nil, helloFields, &hello))) +
		wire.FrameSize(lblAccept, len(appendCtl(nil, acceptFields, &accept))) +
		wire.Overhead("poly-recon") +
		wire.FrameSize(lblDone, len(appendCtl(nil, doneFields, &done))))
	if ns.Overhead != framing {
		t.Fatalf("overhead %d, itemised %d", ns.Overhead, framing)
	}
	waitFor(t, "server to finish the session", func() bool { return finished.Load() == 1 })
	if tcp := cl.Bytes.Load(); tcp != 24+framing {
		t.Fatalf("TCP bytes %d != 24 + framing %d", tcp, framing)
	}
}

func TestForestOverTCP(t *testing.T) {
	fa := sosr.RandomForest(120, 0.15, 51)
	fb := sosr.PerturbForest(fa, 3, 52)
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostForest("tree", fa); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	for _, cfg := range []sosr.ForestConfig{
		{Seed: 53, MaxEdits: 3}, // known budget
		{Seed: 63},              // auto doubling
	} {
		want, err := sosr.ReconcileForests(fa, fb, cfg)
		if err != nil {
			t.Fatalf("in-process %+v: %v", cfg, err)
		}
		got, ns, err := c.Forest(context.Background(), "tree", fb, cfg)
		if err != nil {
			t.Fatalf("wire %+v: %v", cfg, err)
		}
		if !sosr.ForestsIsomorphic(got.Recovered, fa) {
			t.Fatalf("%+v: recovered forest not isomorphic to the server's", cfg)
		}
		checkNetStats(t, ns, want.Stats)
	}
}

// TestConcurrentSessions exercises ≥ 8 simultaneous reconciliations across
// mixed dataset kinds (run under -race in CI).
func TestConcurrentSessions(t *testing.T) {
	setAlice, setBob := setPair()
	sosAlice, sosBob := sosPair()
	fa := sosr.RandomForest(100, 0.2, 91)
	fb := sosr.PerturbForest(fa, 2, 92)
	type sessionRecord struct {
		status  string
		wireIn  int64
		hasWire bool
	}
	var logMu sync.Mutex
	var logged []sessionRecord
	srv, addr, _ := startServer(t, func(s *Server) {
		s.Logger = slog.New(worktest.Handler(func(r slog.Record) {
			if r.Message != "session finished" {
				return
			}
			var rec sessionRecord
			r.Attrs(func(a slog.Attr) bool {
				switch a.Key {
				case "status":
					rec.status = a.Value.String()
				case "wire_in":
					rec.wireIn, rec.hasWire = a.Value.Int64(), true
				}
				return true
			})
			logMu.Lock()
			logged = append(logged, rec)
			logMu.Unlock()
		}))
		if err := s.HostSets("ids", setAlice); err != nil {
			t.Fatal(err)
		}
		if err := s.HostSetsOfSets("docs", sosAlice); err != nil {
			t.Fatal(err)
		}
		if err := s.HostForest("tree", fa); err != nil {
			t.Fatal(err)
		}
	})
	_ = srv
	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := Dial(addr)
			c.Timeout = 60 * time.Second
			seed := uint64(w)*131 + 7
			if res, _, err := c.Sets(context.Background(), "ids", setBob, sosr.SetConfig{Seed: seed, KnownDiff: 16}); err != nil {
				errs <- fmt.Errorf("worker %d sets: %w", w, err)
			} else if !reflect.DeepEqual(res.Recovered, setutil.Canonical(setAlice)) {
				errs <- fmt.Errorf("worker %d sets: wrong recovery", w)
			}
			if res, _, err := c.SetsOfSets(context.Background(), "docs", sosBob, sosr.Config{Seed: seed, Protocol: sosr.ProtocolCascade, KnownDiff: 24}); err != nil {
				errs <- fmt.Errorf("worker %d sos: %w", w, err)
			} else if len(res.Recovered) != len(sosAlice) {
				errs <- fmt.Errorf("worker %d sos: wrong recovery", w)
			}
			if res, _, err := c.Forest(context.Background(), "tree", fb, sosr.ForestConfig{Seed: seed, MaxEdits: 3}); err != nil {
				errs <- fmt.Errorf("worker %d forest: %w", w, err)
			} else if !sosr.ForestsIsomorphic(res.Recovered, fa) {
				errs <- fmt.Errorf("worker %d forest: wrong recovery", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The server logs each session after reading the client's done frame;
	// wait for the stragglers.
	waitFor(t, "session logs", func() bool {
		logMu.Lock()
		defer logMu.Unlock()
		return len(logged) >= workers*3
	})
	logMu.Lock()
	defer logMu.Unlock()
	if len(logged) != workers*3 {
		t.Fatalf("expected %d session log records, got %d", workers*3, len(logged))
	}
	for _, rec := range logged {
		if rec.status != "ok" || !rec.hasWire || rec.wireIn <= 0 {
			t.Fatalf("malformed session record: %+v", rec)
		}
	}
}

func TestUnknownDatasetAndKindMismatch(t *testing.T) {
	alice, bob := setPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	if _, _, err := c.Sets(context.Background(), "nope", bob, sosr.SetConfig{Seed: 1, KnownDiff: 8}); !errors.Is(err, ErrServer) {
		t.Fatalf("unknown dataset: %v", err)
	}
	if _, _, err := c.SetsOfSets(context.Background(), "ids", [][]uint64{{1}}, sosr.Config{Seed: 1, KnownDiff: 2}); !errors.Is(err, ErrServer) {
		t.Fatalf("kind mismatch: %v", err)
	}
	// The server must keep serving after rejected sessions.
	if _, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 1, KnownDiff: 16}); err != nil {
		t.Fatalf("post-rejection session: %v", err)
	}
}

func TestReplicatedGiveUpMatchesInProcess(t *testing.T) {
	alice, bob := sosPair() // true difference ≈ 12
	cfg := sosr.Config{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: 1, Replicas: 2}
	if _, err := sosr.ReconcileSetsOfSets(alice, bob, cfg); err == nil {
		t.Fatal("in-process run unexpectedly succeeded with d=1")
	}
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	if _, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("wire run: want ErrGaveUp, got %v", err)
	}
	// Server survives the failed session.
	if _, _, err := c.SetsOfSets(context.Background(), "docs", bob, sosr.Config{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: 24}); err != nil {
		t.Fatalf("post-failure session: %v", err)
	}
}

// TestServerRejectsHostileBounds: client-supplied bounds beyond the
// server's cap must be refused at the handshake, before any allocation.
func TestServerRejectsHostileBounds(t *testing.T) {
	alice, bob := setPair()
	_, addr, _ := startServer(t, func(s *Server) {
		s.MaxBound = 1 << 12
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	c.Timeout = 10 * time.Second
	if _, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 1, KnownDiff: 1 << 30}); !errors.Is(err, ErrServer) {
		t.Fatalf("giant d accepted: %v", err)
	}
	// Within the cap, sessions still work.
	if _, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 1, KnownDiff: 16}); err != nil {
		t.Fatalf("capped server rejected a sane session: %v", err)
	}
}

// TestSessionTimeoutSeversStalledConn: a connection that never completes
// its handshake is cut by the session deadline instead of pinning a
// goroutine forever.
func TestSessionTimeoutSeversStalledConn(t *testing.T) {
	alice, _ := setPair()
	_, addr, _ := startServer(t, func(s *Server) {
		s.SessionTimeout = 150 * time.Millisecond
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := stalled.Read(buf); err == nil {
		t.Fatal("expected the server to sever the stalled connection")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never severed the stalled connection")
	}
}

func TestServerSurvivesGarbage(t *testing.T) {
	alice, bob := setPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := raw.Read(buf); err != nil {
			break // server dropped the garbage connection
		}
	}
	raw.Close()
	if _, _, err := Dial(addr).Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 2, KnownDiff: 16}); err != nil {
		t.Fatalf("session after garbage connection: %v", err)
	}
}

// TestCorruptedFrameDetected interposes a proxy that flips one byte of the
// server→client stream inside a protocol payload; the client must surface an
// error (the frame checksum), never silently wrong data.
func TestCorruptedFrameDetected(t *testing.T) {
	alice, bob := setPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxyLn.Close()
	go func() {
		cli, err := proxyLn.Accept()
		if err != nil {
			return
		}
		srv, err := net.Dial("tcp", addr)
		if err != nil {
			cli.Close()
			return
		}
		go io.Copy(srv, cli) // client→server verbatim
		// server→client with one byte flipped past the handshake frames.
		const flipAt = 600
		var off int64
		buf := make([]byte, 4096)
		for {
			n, err := srv.Read(buf)
			if n > 0 {
				if off <= flipAt && flipAt < off+int64(n) {
					buf[flipAt-off] ^= 0x40
				}
				off += int64(n)
				if _, werr := cli.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		cli.Close()
		srv.Close()
	}()
	c := Dial(proxyLn.Addr().String())
	c.Timeout = 10 * time.Second
	res, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 3, KnownDiff: 16})
	if err == nil {
		t.Fatalf("tampered session returned data: %+v", res)
	}
	if !errors.Is(err, wire.ErrChecksum) {
		t.Logf("tampering surfaced as non-checksum error (acceptable): %v", err)
	}
}

func TestGracefulShutdown(t *testing.T) {
	alice, bob := setPair()
	srv, addr, cl := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	if _, _, err := Dial(addr).Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 4, KnownDiff: 16}); err != nil {
		t.Fatal(err)
	}
	// A stalled connection (client never sends its hello) must not wedge
	// Shutdown: the context expiry severs it.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	waitFor(t, "stalled connection accept", func() bool { return cl.Accepted.Load() >= 2 })
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded (stalled session severed)", err)
	}
	// After shutdown no new sessions are accepted.
	c := Dial(addr)
	c.Timeout = 2 * time.Second
	if _, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 5, KnownDiff: 16}); err == nil {
		t.Fatal("session accepted after shutdown")
	}
}

// TestHelloDeadlineSeversSlowLoris: a connection that dribbles its handshake
// must be severed by the hello deadline — long before the session deadline —
// so slow-loris clients cannot hold session slots for minutes.
func TestHelloDeadlineSeversSlowLoris(t *testing.T) {
	alice, bob := setPair()
	_, addr, _ := startServer(t, func(s *Server) {
		s.SessionTimeout = 30 * time.Second
		s.HelloTimeout = 150 * time.Millisecond
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	start := time.Now()
	loris, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	// One byte of a would-be frame, then silence.
	if _, err := loris.Write([]byte{0x53}); err != nil {
		t.Fatal(err)
	}
	loris.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := loris.Read(buf); err == nil {
		t.Fatal("server answered a half-sent hello")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never severed the stalled handshake")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled handshake lived %s — severed by the session deadline, not the hello deadline", elapsed)
	}
	// A prompt client is unaffected, including its post-hello frames, which
	// must run under the restored session deadline (not the hello one).
	if _, _, err := Dial(addr).Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 6, KnownDiff: 16}); err != nil {
		t.Fatalf("session after slow-loris: %v", err)
	}
}
