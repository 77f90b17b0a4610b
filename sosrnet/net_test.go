package sosrnet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/forest"
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

func sosPair() (alice, bob [][]uint64) {
	return workload.PlantedSetsOfSets(17, 60, 8, 1<<32, 12)
}

// TestEndToEndWireBytes is the acceptance check: a dataset reconciles over
// real TCP, the client recovers the server's data, and the measured TCP bytes
// equal the in-process Stats.TotalBytes plus the deterministic framing
// overhead, reconstructed frame by frame. The cascade row runs with the
// encode cache enabled (the default) and disabled, since cached payloads must
// be byte-identical to freshly encoded ones; the graph row is the §4 scheme's
// one 24-byte poly-recon frame, and the forest row a doubling session whose
// verdicts ride as frames of their own.
func TestEndToEndWireBytes(t *testing.T) {
	alice, bob := sosPair()
	cascade := func(t *testing.T, s *Server, c *Client) (sosr.Stats, *NetStats, int64) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
		cfg := sosr.Config{Seed: 77, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
		want, err := sosr.ReconcileSetsOfSets(alice, bob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, ns, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Recovered, want.Recovered) {
			t.Fatal("client did not recover the server's parent set")
		}
		// Hello, accept and done control frames plus the framing around the
		// single cascade payload.
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
		return want.Stats, ns, int64(wire.FrameSize(lblHello, len(appendCtl(nil, helloFields, &hello))) +
			wire.FrameSize(lblAccept, len(appendCtl(nil, acceptFields, &accept))) +
			wire.FrameSize(lblDone, len(appendCtl(nil, doneFields, &done))) +
			wire.Overhead("cascade-iblts"))
	}
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		// session hosts the row's dataset on s, reconciles it over c and in
		// process, and returns the in-process Stats, the wire's and the
		// session's framing itemised.
		session func(t *testing.T, s *Server, c *Client) (sosr.Stats, *NetStats, int64)
	}{
		{"cache-on", 0, cascade},
		{"cache-off", -1, cascade},
		{"graph/polynomial", 0, func(t *testing.T, s *Server, c *Client) (sosr.Stats, *NetStats, int64) {
			ga := sosr.RandomGraph(6, 0.5, 31)
			gb := sosr.PerturbGraph(ga, 2, 32)
			if err := s.HostGraph("tiny", ga); err != nil {
				t.Fatal(err)
			}
			cfg := sosr.GraphConfig{Seed: 33, Scheme: sosr.SchemePolynomial, MaxEdits: 2}
			want, err := sosr.ReconcileGraphs(ga, gb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.Stats.TotalBytes != 24 {
				t.Fatalf("in-process poly-recon sent %d bytes, want 24", want.Stats.TotalBytes)
			}
			got, ns, err := c.Graph(context.Background(), "tiny", gb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sosr.GraphsExactlyIsomorphic(got.Recovered, ga) {
				t.Fatal("recovered graph not isomorphic to the server's")
			}
			hello := helloMsg{V: protoVersion, Dataset: "tiny", Kind: KindGraph, Seed: cfg.Seed, D: 2, Scheme: "polynomial", N: gb.N}
			accept := acceptMsg{V: protoVersion, Kind: KindGraph, D: 2}
			done := doneMsg{OK: true, Rounds: 1, Bytes: 24, Messages: 1, Attempts: 1}
			return want.Stats, ns, int64(wire.FrameSize(lblHello, len(appendCtl(nil, helloFields, &hello))) +
				wire.FrameSize(lblAccept, len(appendCtl(nil, acceptFields, &accept))) +
				wire.Overhead("poly-recon") +
				wire.FrameSize(lblDone, len(appendCtl(nil, doneFields, &done))))
		}},
		{"forest/bound", 0, func(t *testing.T, s *Server, c *Client) (sosr.Stats, *NetStats, int64) {
			fa := sosr.RandomForest(200, 0.2, 41)
			fb := sosr.PerturbForest(fa, 3, 42)
			if err := s.HostForest("tree", fa); err != nil {
				t.Fatal(err)
			}
			cfg := sosr.ForestConfig{Seed: 43, MaxEdits: 3, Depth: 16}
			want, err := sosr.ReconcileForests(fa, fb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, ns, err := c.Forest(context.Background(), "tree", fb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sosr.ForestsIsomorphic(got.Recovered, fa) {
				t.Fatal("recovered forest not isomorphic to the server's")
			}
			// Each attempt is Alice's signature and meta frames and Bob's
			// one-byte verdict, "retry" until the "ack"; then the done.
			ia, ib := forest.Measure(&forest.Forest{Parent: fa.Parent}), forest.Measure(&forest.Forest{Parent: fb.Parent})
			hello := helloMsg{V: protoVersion, Dataset: "tree", Kind: KindForest, Seed: cfg.Seed, D: 3, Sigma: 16, N: ib.N, Depth: ib.Depth, MaxChild: ib.MaxChild}
			accept := acceptMsg{V: protoVersion, Kind: KindForest, D: 3, N: ia.N, Depth: ia.Depth, MaxChild: ia.MaxChild, MaxBudget: 1 << 20}
			done := doneMsg{OK: true, Rounds: want.Stats.Rounds, Bytes: want.Stats.TotalBytes, Messages: want.Stats.Messages, Attempts: ns.Attempts}
			framing := wire.FrameSize(lblHello, len(appendCtl(nil, helloFields, &hello))) +
				wire.FrameSize(lblAccept, len(appendCtl(nil, acceptFields, &accept))) +
				wire.FrameSize(lblDone, len(appendCtl(nil, doneFields, &done))) + wire.Overhead("ack")
			for range ns.Attempts {
				framing += wire.Overhead("cascade-iblts") + wire.Overhead("forest-meta")
			}
			for range ns.Attempts - 1 {
				framing += wire.Overhead("retry")
			}
			return want.Stats, ns, int64(framing)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sessions worktest.Sessions
			srv, addr, cl := startServer(t, func(s *Server) { s.CacheBytes, s.Logger = tc.cacheBytes, sessions.Logger() })
			want, ns, framing := tc.session(t, srv, Dial(addr))
			if ns.Protocol != want {
				t.Fatalf("wire protocol stats %+v != in-process %+v", ns.Protocol, want)
			}
			if ns.Overhead != framing {
				t.Fatalf("overhead %d, itemised %d", ns.Overhead, framing)
			}
			// The listener-side counter is the ground truth for "bytes on the
			// wire"; wait for the server to finish reading the session (it logs
			// last).
			sessions.Wait(t, 1)
			if tcp := cl.Bytes.Load(); tcp != int64(want.TotalBytes)+framing {
				t.Fatalf("TCP bytes %d != in-process payload %d + framing %d", tcp, want.TotalBytes, framing)
			}
			cs := srv.CacheStats()
			if tc.cacheBytes < 0 {
				if cs.Misses != 0 || cs.Hits != 0 {
					t.Fatalf("disabled cache recorded traffic: %+v", cs)
				}
			} else if cs.Misses == 0 {
				t.Fatalf("enabled cache never consulted: %+v", cs)
			}
		})
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
		stages  []string // the stage timings the record carries, in order
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
				case "hello", "estimate", "encode", "transfer":
					if _, err := time.ParseDuration(a.Value.String()); err == nil {
						rec.stages = append(rec.stages, a.Key)
					}
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
	// Every session ran hello and transfer, and encoded unless its payload
	// came from the cache; none of them probed for its bound.
	for _, rec := range logged {
		st := strings.Join(rec.stages, ",")
		if rec.status != "ok" || !rec.hasWire || rec.wireIn <= 0 ||
			(st != "hello,transfer" && st != "hello,encode,transfer") {
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
