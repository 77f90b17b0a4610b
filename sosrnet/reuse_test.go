package sosrnet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sosr"
	"sosr/internal/obs"
	"sosr/internal/setutil"
)

// Connection-reuse tests: sessions of one Client share connections without
// changing what any of them reports, a connection the server has dropped
// never surfaces as a failed session, and an idle connection costs the
// server nothing but its descriptor.

// countDials makes c count the connections it opens.
func countDials(c *Client) *atomic.Int64 {
	var n atomic.Int64
	c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		n.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	return &n
}

// closeIdleConns severs every connection the server holds between sessions,
// as its idle timer would.
func closeIdleConns(s *Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.idle {
		c.Close()
	}
}

func idleConns(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idle)
}

// TestReuseSequentialSessionsEveryKind runs several sessions of every dataset
// kind over one Client: one dial in all, and the n-th session of a kind
// reports exactly what the first did — the in-process protocol stats plus the
// same itemised framing — while the listener sees exactly the bytes the
// sessions reported. Results are checked only after every session has run,
// so one that aliased a (since reused) frame buffer would show.
func TestReuseSequentialSessionsEveryKind(t *testing.T) {
	setA, setB := setPair()
	multiA := []uint64{1, 1, 1, 2, 5, 5, 9, 9, 9, 9, 40}
	multiB := []uint64{1, 1, 2, 2, 5, 9, 9, 9, 9, 40, 41}
	sosA, sosB := sosPair()
	base, topH, err := sosr.PlantedSeparatedGraph(600, 2, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := sosr.PerturbGraph(base, 1, 12), sosr.PerturbGraph(base, 1, 13)
	fa := sosr.RandomForest(120, 0.15, 51)
	fb := sosr.PerturbForest(fa, 3, 52)
	var finished atomic.Int64
	_, addr, ln := startServer(t, func(s *Server) {
		s.Logger = slog.New(hookHandler{fn: func(r slog.Record) {
			if r.Message == "session finished" {
				finished.Add(1)
			}
		}})
		for _, err := range []error{
			s.HostSets("ids", setA), s.HostMultiset("bag", multiA), s.HostSetsOfSets("docs", sosA),
			s.HostGraph("net", ga), s.HostForest("tree", fa),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	ctx := context.Background()
	c := Dial(addr)
	defer c.Close()
	dials := countDials(c)

	setCfg := sosr.SetConfig{Seed: 7, KnownDiff: 16}
	sosCfg := sosr.Config{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	nestedCfg := sosr.Config{Seed: 4, Protocol: sosr.ProtocolNested} // doubling: several attempts, acks
	graphCfg := sosr.GraphConfig{Seed: 14, Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: topH}
	forestCfg := sosr.ForestConfig{Seed: 53, MaxEdits: 3}
	wantSet, err1 := sosr.ReconcileSets(setA, setB, setCfg)
	wantMulti, wantMultiStats, err2 := sosr.ReconcileMultisets(multiA, multiB, 16, 3)
	wantSOS, err3 := sosr.ReconcileSetsOfSets(sosA, sosB, sosCfg)
	wantNested, err4 := sosr.ReconcileSetsOfSets(sosA, sosB, nestedCfg)
	wantGraph, err5 := sosr.ReconcileGraphs(ga, gb, graphCfg)
	wantForest, err6 := sosr.ReconcileForests(fa, fb, forestCfg)
	if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		ns    *NetStats
		check func() error // run after all sessions
	}
	kinds := []struct {
		name string
		want sosr.Stats
		run  func() (outcome, error)
	}{
		{"set", wantSet.Stats, func() (outcome, error) {
			res, ns, err := c.Sets(ctx, "ids", setB, setCfg)
			return outcome{ns, func() error {
				if !reflect.DeepEqual(res.Recovered, setutil.Canonical(setA)) || !reflect.DeepEqual(res.OnlyA, wantSet.OnlyA) {
					return errors.New("wrong set recovered")
				}
				return nil
			}}, err
		}},
		{"multiset", wantMultiStats, func() (outcome, error) {
			rec, ns, err := c.Multiset(ctx, "bag", multiB, 16, 3)
			return outcome{ns, func() error {
				if !reflect.DeepEqual(rec, wantMulti) {
					return errors.New("wrong multiset recovered")
				}
				return nil
			}}, err
		}},
		{"sos/cascade", wantSOS.Stats, func() (outcome, error) {
			res, ns, err := c.SetsOfSets(ctx, "docs", sosB, sosCfg)
			return outcome{ns, func() error {
				if !reflect.DeepEqual(res.Recovered, wantSOS.Recovered) || !reflect.DeepEqual(res.Added, wantSOS.Added) ||
					!reflect.DeepEqual(res.Removed, wantSOS.Removed) {
					return errors.New("wrong parent set recovered")
				}
				return nil
			}}, err
		}},
		{"sos/nested-doubling", wantNested.Stats, func() (outcome, error) {
			res, ns, err := c.SetsOfSets(ctx, "docs", sosB, nestedCfg)
			return outcome{ns, func() error {
				if !reflect.DeepEqual(res.Recovered, wantNested.Recovered) || res.Attempts != wantNested.Attempts {
					return errors.New("wrong parent set recovered")
				}
				return nil
			}}, err
		}},
		{"graph", wantGraph.Stats, func() (outcome, error) {
			res, ns, err := c.Graph(ctx, "net", gb, graphCfg)
			return outcome{ns, func() error {
				if !sosr.GraphsExactlyIsomorphic(res.Recovered, ga) {
					return errors.New("wrong graph recovered")
				}
				return nil
			}}, err
		}},
		{"forest", wantForest.Stats, func() (outcome, error) {
			res, ns, err := c.Forest(ctx, "tree", fb, forestCfg)
			return outcome{ns, func() error {
				if !sosr.ForestsIsomorphic(res.Recovered, fa) {
					return errors.New("wrong forest recovered")
				}
				return nil
			}}, err
		}},
	}
	const rounds = 4
	var checks []func() error
	var reported int64
	first := make([]*NetStats, len(kinds))
	for n := 1; n <= rounds; n++ {
		for k, kind := range kinds {
			out, err := kind.run()
			if err != nil {
				t.Fatalf("%s, session %d: %v", kind.name, n, err)
			}
			checkNetStats(t, out.ns, kind.want)
			if first[k] == nil {
				first[k] = out.ns
			} else if *out.ns != *first[k] {
				t.Fatalf("%s: session %d reports %+v, the first %+v", kind.name, n, *out.ns, *first[k])
			}
			reported += out.ns.WireIn + out.ns.WireOut
			what := fmt.Sprintf("%s, session %d", kind.name, n)
			checks = append(checks, func() error {
				if err := out.check(); err != nil {
					return fmt.Errorf("%s: %w", what, err)
				}
				return nil
			})
		}
	}
	for _, check := range checks {
		if err := check(); err != nil {
			t.Error(err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d sequential sessions dialed %d times, want once", rounds*len(kinds), got)
	}
	if got := ln.accepted.Load(); got != 1 {
		t.Fatalf("server accepted %d connections, want 1", got)
	}
	// The server reads each closing ctl/done after the client has its
	// result; once it has logged the last session, the listener's count is
	// final: TCP bytes == Σ (in-process Stats + itemised framing).
	waitFor(t, "server to finish the last session", func() bool { return finished.Load() == int64(rounds*len(kinds)) })
	if tcp := ln.n.Load(); tcp != reported {
		t.Fatalf("listener counted %d TCP bytes, the sessions reported %d", tcp, reported)
	}
}

// TestStaleIdleConnFoundDeadWhenTaken: the server drops the idle connection;
// by the time the next session takes it, its reader has seen the close, so
// the session simply dials — no error, no replay.
func TestStaleIdleConnFoundDeadWhenTaken(t *testing.T) {
	alice, bob := setPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	defer c.Close()
	c.Obs = obs.NewRegistry()
	dials := countDials(c)
	cfg := sosr.SetConfig{Seed: 7, KnownDiff: 16}
	if _, _, err := c.Sets(context.Background(), "ids", bob, cfg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "connection to go idle on the server", func() bool { return idleConns(srv) == 1 })
	closeIdleConns(srv)
	waitFor(t, "parked connection to notice the close", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.idle) == 1 && c.idle[0].ep.Pending()
	})
	res, _, err := c.Sets(context.Background(), "ids", bob, cfg)
	if err != nil {
		t.Fatalf("session after the server dropped the idle connection: %v", err)
	}
	if !reflect.DeepEqual(res.Recovered, setutil.Canonical(alice)) {
		t.Fatal("wrong set recovered")
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dialed %d times, want 2 (one per live connection)", got)
	}
	ev := clientConnEvents(t, c)
	if ev["dial"] != 2 || ev["stale_redial"] != 0 || ev["reuse"] != 0 {
		t.Fatalf("connection events %v, want dial=2 only", ev)
	}
}

// heldEOFConn holds back a read error until the next write, reproducing the
// race in which the server closes a parked connection just as the client
// writes the next hello: the connection looks quiet when it is taken.
type heldEOFConn struct {
	net.Conn
	mu      sync.Mutex
	written chan struct{} // closed by the next Write
}

func (c *heldEOFConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.mu.Lock()
		w := c.written
		c.mu.Unlock()
		<-w
	}
	return n, err
}

func (c *heldEOFConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	select {
	case <-c.written:
	default:
		close(c.written)
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// arm makes the next read error wait for a write issued after now.
func (c *heldEOFConn) arm() {
	c.mu.Lock()
	c.written = make(chan struct{})
	c.mu.Unlock()
}

// TestStaleIdleConnReplayedOnce: the close races the hello. The reused
// connection fails before the session's first frame, the session is replayed
// on a fresh dial and succeeds; the caller sees no error, the metrics see a
// stale_redial.
func TestStaleIdleConnReplayedOnce(t *testing.T) {
	alice, bob := setPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	defer c.Close()
	c.Obs = obs.NewRegistry()
	var conns []*heldEOFConn
	c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		hc := &heldEOFConn{Conn: conn, written: make(chan struct{})}
		close(hc.written)
		conns = append(conns, hc)
		return hc, nil
	}
	cfg := sosr.SetConfig{Seed: 7, KnownDiff: 16}
	if _, _, err := c.Sets(context.Background(), "ids", bob, cfg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "connection to go idle on the server", func() bool { return idleConns(srv) == 1 })
	conns[0].arm()
	closeIdleConns(srv)
	waitFor(t, "server to drop the connection", func() bool { return idleConns(srv) == 0 })
	for n := 2; n <= 3; n++ { // the replay, then a plain reuse of the fresh connection
		res, ns, err := c.Sets(context.Background(), "ids", bob, cfg)
		if err != nil {
			t.Fatalf("session %d: %v", n, err)
		}
		if !reflect.DeepEqual(res.Recovered, setutil.Canonical(alice)) {
			t.Fatal("wrong set recovered")
		}
		if ns.Attempts != 1 {
			t.Fatalf("a replayed hello must not show as a protocol attempt: %+v", ns)
		}
	}
	if len(conns) != 2 {
		t.Fatalf("dialed %d times, want 2", len(conns))
	}
	ev := clientConnEvents(t, c)
	if ev["dial"] != 2 || ev["stale_redial"] != 1 || ev["reuse"] != 1 {
		t.Fatalf("connection events %v, want dial=2 stale_redial=1 reuse=1", ev)
	}
}

// clientConnEvents reads sosr_client_connections_total off the client's registry.
func clientConnEvents(t *testing.T, c *Client) map[string]float64 {
	t.Helper()
	samples := registrySamples(t, c.Obs)
	out := map[string]float64{}
	for _, ev := range connEventNames {
		out[ev] = samples[`sosr_client_connections_total{event="`+ev+`"}`]
	}
	return out
}

// TestSeveredFreshConnStillErrors: only a reused connection is replayed. A
// server that drops a fresh connection is reported to the caller, after one
// dial — sosrshard's failover and hedging count on seeing it.
func TestSeveredFreshConnStillErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	c := Dial(ln.Addr().String())
	defer c.Close()
	dials := countDials(c)
	_, bob := setPair()
	if _, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 7, KnownDiff: 16}); err == nil {
		t.Fatal("session on a severed fresh connection succeeded")
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("a failed fresh connection was retried: %d dials", got)
	}
	if parked(c) != 0 {
		t.Fatal("a failed connection was parked")
	}
}

// TestReuseConcurrentSessionsShareClient: goroutines sharing one Client each
// hold a connection only while a session runs, so 8 × 50 sessions need at
// most 8 connections. Run under -race.
func TestReuseConcurrentSessionsShareClient(t *testing.T) {
	alice, bob := sosPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	defer c.Close()
	dials := countDials(c)
	want := setutil.HashSetOfSets(1, setutil.CanonicalSets(alice))
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// A few distinct seeds, so sessions mix cache hits and misses;
				// a cascade attempt may fail by design, which is an outcome
				// like any other for the connection.
				cfg := sosr.Config{Seed: uint64(i % 5), Protocol: sosr.ProtocolCascade, KnownDiff: 24}
				res, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
				if err != nil {
					if !errors.Is(err, ErrGaveUp) {
						t.Errorf("worker %d session %d: %v", w, i, err)
					}
					continue
				}
				if setutil.HashSetOfSets(1, res.Recovered) != want {
					t.Errorf("worker %d session %d: wrong parent set", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := dials.Load(); got > workers {
		t.Fatalf("%d concurrent workers dialed %d times", workers, got)
	}
	if p := parked(c); p > workers || p < 1 {
		t.Fatalf("%d connections parked after %d workers", p, workers)
	}
}

// TestIdleConnsHoldNoSessionSlot: with a cap of one concurrent session, a
// connection parked by one client must not keep another from being served,
// is not an active session, and shows as idle in sosr_connections.
func TestIdleConnsHoldNoSessionSlot(t *testing.T) {
	alice, bob := setPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		s.MaxConcurrentSessions = 1
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	cfg := sosr.SetConfig{Seed: 7, KnownDiff: 16}
	clients := []*Client{Dial(addr), Dial(addr), Dial(addr)}
	for round := 0; round < 2; round++ { // fresh connections, then reused ones
		for i, c := range clients {
			defer c.Close()
			if _, _, err := c.Sets(context.Background(), "ids", bob, cfg); err != nil {
				t.Fatalf("round %d client %d: %v", round, i, err)
			}
			// The slot is given back when the server has read the closing
			// ctl/done, a beat after the client has its result.
			waitFor(t, "session slot released", func() bool { return srv.liveSessions.Load() == 0 })
		}
	}
	waitFor(t, "all three connections idle", func() bool { return idleConns(srv) == 3 })
	samples := registrySamples(t, srv.Registry())
	if samples[`sosr_connections{state="idle"}`] != 3 || samples[`sosr_connections{state="active"}`] != 0 {
		t.Fatalf("sosr_connections: %v idle, %v active; want 3 and 0",
			samples[`sosr_connections{state="idle"}`], samples[`sosr_connections{state="active"}`])
	}
	if samples["sosr_sessions_active"] != 0 {
		t.Fatalf("sosr_sessions_active = %v with only idle connections", samples["sosr_sessions_active"])
	}
}

// TestShutdownClosesIdleConns: Shutdown waits for sessions, not for idlers —
// sosrd's SIGTERM drain depends on it.
func TestShutdownClosesIdleConns(t *testing.T) {
	alice, bob := setPair()
	srv := NewServer()
	if err := srv.HostSets("ids", alice); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	c := Dial(ln.Addr().String())
	defer c.Close()
	if _, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 7, KnownDiff: 16}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "connection to go idle", func() bool { return idleConns(srv) == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with only an idle connection open: %v", err)
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("Shutdown waited %v for an idle connection", took)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	// The client notices when it next takes the connection, and reports the
	// refused dial: the server is gone.
	if _, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 7, KnownDiff: 16}); err == nil {
		t.Fatal("session against a shut-down server succeeded")
	}
}

// TestSessionRecordCarriesConnSeq: the n-th session of a connection says so,
// in its log record and on its span.
func TestSessionRecordCarriesConnSeq(t *testing.T) {
	alice, bob := setPair()
	var mu sync.Mutex
	var seqs []int64
	tracer := &obs.Tracer{SampleRate: 1}
	_, addr, _ := startServer(t, func(s *Server) {
		s.Trace = tracer
		s.Logger = slog.New(hookHandler{fn: func(r slog.Record) {
			if r.Message != "session finished" {
				return
			}
			r.Attrs(func(a slog.Attr) bool {
				if a.Key == "conn_seq" {
					mu.Lock()
					seqs = append(seqs, a.Value.Int64())
					mu.Unlock()
				}
				return true
			})
		}})
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 7, KnownDiff: 16}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "three session records", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs) == 3
	})
	if !reflect.DeepEqual(seqs, []int64{1, 2, 3}) {
		t.Fatalf("conn_seq of three sessions on one connection: %v", seqs)
	}
	var spanSeqs []int64
	for _, sum := range tracer.Recent() {
		id, err := obs.ParseTraceID(sum.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if sp := findSpan(tracer.Get(id).Roots, "server/session"); sp != nil {
			spanSeqs = append(spanSeqs, attrInt(t, sp, "conn_seq"))
		}
	}
	slices.Sort(spanSeqs)
	if !reflect.DeepEqual(spanSeqs, []int64{1, 2, 3}) {
		t.Fatalf("server/session spans carrying conn_seq: %v", spanSeqs)
	}
}
