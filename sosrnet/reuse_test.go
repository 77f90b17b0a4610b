package sosrnet

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sosr"
	"sosr/internal/obs"
	"sosr/internal/setutil"
	"sosr/internal/worktest"
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

// pipeListener is an in-memory net.Listener: dial hands Accept one end of a
// net.Pipe. A net.Pipe write blocks until the peer reads, so a flow in which
// both ends write at once deadlocks here where a socket buffer would hide it.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial(context.Context, string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// TestStaleIdleConnReplayedOnce: a parked connection dies — the server drops
// it long before the client's next session takes it, or it is closed as that
// session's hello is written. Either way nothing reads a parked connection, so
// the hello is what finds it dead: the reused connection fails before the
// session's first frame, the session is replayed on a fresh dial and succeeds;
// the caller sees no error, the metrics see a stale_redial.
func TestStaleIdleConnReplayedOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		atHello bool
	}{
		{"closed long before it is taken", false},
		{"closed as the hello is written", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alice, bob := setPair()
			srv, addr, _ := startServer(t, func(s *Server) {
				if err := s.HostSets("ids", alice); err != nil {
					t.Fatal(err)
				}
			})
			c := Dial(addr)
			defer c.Close()
			c.Obs = obs.NewRegistry()
			var faults worktest.Faults
			dials := 0
			c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
				dials++
				var d net.Dialer
				conn, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					return nil, err
				}
				return worktest.Wrap(conn, &faults), nil
			}
			cfg := sosr.SetConfig{Seed: 7, KnownDiff: 16}
			if _, _, err := c.Sets(context.Background(), "ids", bob, cfg); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "connection to go idle on the server", func() bool { return idleConns(srv) == 1 })
			if tc.atHello {
				faults.Arm(worktest.ResetIdle)
			} else {
				closeIdleConns(srv)
				waitFor(t, "server to drop the connection", func() bool { return idleConns(srv) == 0 })
			}
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
			if dials != 2 {
				t.Fatalf("dialed %d times, want 2", dials)
			}
			ev := clientConnEvents(t, c)
			if ev["dial"] != 2 || ev["stale_redial"] != 1 || ev["reuse"] != 1 {
				t.Fatalf("connection events %v, want dial=2 stale_redial=1 reuse=1", ev)
			}
		})
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

// TestOneGoroutinePerConnection: a session is one goroutine on each end, so
// a parked connection costs the process its server handler and nothing else —
// no goroutine of the client's, none of the transport's.
func TestOneGoroutinePerConnection(t *testing.T) {
	alice, bob := setPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	// Goroutines of earlier tests may still be winding down: the baseline is
	// the count once it has stopped moving.
	base := runtime.NumGoroutine()
	for settled := 0; settled < 10; settled++ {
		time.Sleep(5 * time.Millisecond)
		if n := runtime.NumGoroutine(); n != base {
			base, settled = n, 0
		}
	}
	c := Dial(addr)
	defer c.Close()
	const workers, each = 8, 3
	// Every worker's first dial waits for the others', so all eight hold a
	// connection at once and none borrows a parked one.
	var dials atomic.Int64
	var allDialed sync.WaitGroup
	allDialed.Add(workers)
	c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		if dials.Add(1) <= workers {
			allDialed.Done()
			allDialed.Wait()
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 7, KnownDiff: 16}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got, p := dials.Load(), parked(c); got != workers || p != workers {
		t.Fatalf("%d dials, %d connections parked, want %d of each", got, p, workers)
	}
	waitFor(t, "every connection to go idle on the server", func() bool { return idleConns(srv) == workers })
	settle := func(what string, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want %d (baseline %d)", what, runtime.NumGoroutine(), want, base)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	settle("eight parked connections", base+workers)
	c.Close()
	settle("after Client.Close", base)
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
		s.Logger = slog.New(worktest.Handler(func(r slog.Record) {
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
		}))
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
