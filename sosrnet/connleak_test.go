package sosrnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sosr"
)

// trackedConn counts exactly one close per underlying connection, however
// many times Close is called (session cleanup and the context watchdog may
// both fire).
type trackedConn struct {
	net.Conn
	closed *atomic.Int64
	once   sync.Once
}

func (c *trackedConn) Close() error {
	c.once.Do(func() { c.closed.Add(1) })
	return c.Conn.Close()
}

// writeHookConn calls after once its first write has gone out.
type writeHookConn struct {
	net.Conn
	after func()
	once  sync.Once
}

func (c *writeHookConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.once.Do(c.after)
	return n, err
}

// parked counts the connections a client holds between sessions.
func parked(c *Client) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.idle))
}

// TestSessionClosesConnOnEveryPath is the conn-leak regression test, around
// the reuse contract: a session that finished cleanly parks its connection
// (opened − closed == parked, and the next one dials nothing); every other
// ending — rejected at the hello (unknown dataset, misroute, stale epoch, bad
// parameters), cancelled, timed out — closes the connection it ran on; and
// after Client.Close nothing is left open. A leak here is invisible in small
// tests but starves a fleet doing failover retries, where rejection paths run
// constantly.
func TestSessionClosesConnOnEveryPath(t *testing.T) {
	ctx := context.Background()
	topo := mustTopo(t, 3, "c0:1", "c1:2")
	alice, bob := setPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("plain", alice); err != nil {
			t.Fatal(err)
		}
		if err := s.HostSetsShard("ids", alice, topo, 0); err != nil {
			t.Fatal(err)
		}
	})

	var opened, closed atomic.Int64
	var clients []*Client
	track := func(c *Client) *Client {
		c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			opened.Add(1)
			return &trackedConn{Conn: conn, closed: &closed}, nil
		}
		clients = append(clients, c)
		return c
	}
	// check requires that every connection still open is one a client has
	// parked, and that exactly want of them are.
	check := func(step string, want int64) {
		t.Helper()
		var held int64
		for _, c := range clients {
			held += parked(c)
		}
		if o, c := opened.Load(), closed.Load(); o-c != held || held != want {
			t.Fatalf("%s: %d conns opened, %d closed, %d parked (want %d parked)", step, o, c, held, want)
		}
	}

	cfg := sosr.SetConfig{Seed: 1, KnownDiff: 16}

	// Successful sessions park one connection and keep using it.
	c := track(Dial(addr))
	for i := 0; i < 3; i++ {
		if _, _, err := c.Sets(ctx, "plain", bob, cfg); err != nil {
			t.Fatal(err)
		}
		check("success", 1)
	}
	if opened.Load() != 1 {
		t.Fatalf("three sequential sessions dialed %d times", opened.Load())
	}

	// Unknown dataset: rejected at the hello, on the parked connection, which
	// is closed rather than parked again.
	if _, _, err := c.Sets(ctx, "nope", bob, cfg); !errors.Is(err, ErrServer) {
		t.Fatalf("unknown dataset: %v", err)
	}
	check("unknown dataset", 0)

	// Misrouted shard session.
	wrongShard := track(Dial(addr))
	wrongShard.ShardID = topo.ShardIDHash(1)
	wrongShard.ShardCount = topo.NumShards()
	wrongShard.ShardEpoch = topo.Epoch()
	wrongShard.ShardFingerprint = topo.Fingerprint()
	if _, _, err := wrongShard.Sets(ctx, "ids", bob, cfg); !errors.Is(err, ErrMisrouted) {
		t.Fatalf("misroute: %v", err)
	}
	check("misroute", 0)

	// Stale epoch.
	stale := track(shardClient(addr, mustTopo(t, 2, "c0:1", "c1:2"), 0))
	if _, _, err := stale.Sets(ctx, "ids", bob, cfg); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale epoch: %v", err)
	}
	check("stale epoch", 0)

	// Bad request parameters rejected server-side mid-hello.
	if _, _, err := c.Sets(ctx, "plain", bob, sosr.SetConfig{Seed: 1, KnownDiff: 1 << 30}); !errors.Is(err, ErrServer) {
		t.Fatalf("oversized bound: %v", err)
	}
	check("rejected parameters", 0)

	// Cancelled before the session starts: no conn may be opened at all, and
	// a parked one is left alone.
	if _, _, err := c.Sets(ctx, "plain", bob, cfg); err != nil {
		t.Fatal(err)
	}
	check("parked again", 1)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	before := opened.Load()
	if _, _, err := c.Sets(cancelled, "plain", bob, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: %v", err)
	}
	if opened.Load() != before {
		t.Fatal("a connection was dialed under an already-cancelled context")
	}
	check("pre-cancelled", 1)

	// Cancelled mid-session — here as soon as the hello is written: the
	// watchdog severs the conn, and whether the session then fails or wins
	// the race against it, a connection used under a cancelled context is
	// closed, never parked.
	mid, cancelMid := context.WithCancel(ctx)
	defer cancelMid()
	midc := track(Dial(addr))
	dial := midc.dial
	midc.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		return &writeHookConn{Conn: conn, after: cancelMid}, nil
	}
	if _, _, err := midc.Sets(mid, "plain", bob, cfg); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-session: %v", err)
	}
	check("cancelled mid-session", 1)

	// A session deadline that passes mid-session closes the connection too.
	slow := track(Dial(addr))
	slow.Timeout = time.Nanosecond
	if _, _, err := slow.Sets(ctx, "plain", bob, cfg); err == nil {
		t.Fatal("session under an expired deadline succeeded")
	}
	check("timed out", 1)

	// Close releases whatever is parked.
	if _, _, err := c.Sets(ctx, "plain", bob, cfg); err != nil {
		t.Fatal(err)
	}
	for _, cl := range clients {
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if o, cl := opened.Load(), closed.Load(); o != cl || o == 0 {
		t.Fatalf("after Close: %d conns opened, %d closed", o, cl)
	}
	// A closed client still works, on a connection per session.
	if _, _, err := c.Sets(ctx, "plain", bob, cfg); err != nil {
		t.Fatal(err)
	}
	if o, cl := opened.Load(), closed.Load(); o != cl {
		t.Fatalf("session on a closed client: %d conns opened, %d closed", o, cl)
	}
}
