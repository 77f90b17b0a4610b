package sosrnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/enccache"
	"sosr/internal/forest"
	"sosr/internal/graph"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/transport"
	"sosr/internal/wire"
)

// NetStats reports one wire session's communication.
type NetStats struct {
	// Protocol is the reconciliation traffic: frame for frame, byte for
	// byte, what the in-process simulation's Stats report for the same
	// configuration and data.
	Protocol sosr.Stats
	// WireIn and WireOut are the total connection bytes this client read and
	// wrote, framing and handshake included.
	WireIn, WireOut int64
	// Overhead is WireIn+WireOut − Protocol.TotalBytes: the deterministic
	// cost of framing plus the control frames (hello/accept/done/retry).
	Overhead int64
	// Attempts counts protocol attempts (replication or doubling).
	Attempts int
}

// Client reconciles local replicas against a sosrd server. Each method runs
// one session and takes a context as its first parameter: cancellation (or a
// context deadline) severs the session's connection, so a hedged or
// failed-over session releases its resources immediately. The zero Timeout
// means no per-session deadline beyond the context's.
//
// Sessions reuse connections. When a session has finished cleanly — its
// closing ctl/done written, no I/O error, the context still live — the Client
// parks the connection, and its next session takes it back instead of
// dialing; concurrent sessions each hold a connection of their own, so a
// Client keeps at most as many as it ever ran sessions at once. Anything else
// (a rejected handshake, a server error frame, a decode failure, a timeout,
// cancellation) closes the connection as a connection per session would. A
// parked connection the server has meanwhile closed is found when the next
// session's hello fails on it before any frame of that session arrives: the
// session is replayed once on a fresh connection — the server only reads
// during a session, so that is safe — and a failure on a fresh connection is
// reported as it is. Close releases the parked connections; a Client that is
// dropped without it keeps them until the server's idle timer closes them.
//
// A method's config means what it means in process: a negative difference
// bound, shape, replica count or depth is unset, and goes on the hello as 0.
//
// A Client is safe for concurrent use.
type Client struct {
	// Addr is the server's "host:port".
	Addr string
	// Timeout bounds each whole session (dial, or taking a parked
	// connection, through the closing frame) when positive.
	Timeout time.Duration
	// ShardID/ShardCount/ShardEpoch/ShardFingerprint are sent with every
	// hello when ShardCount > 0: the identity hash of the shard position the
	// client believes Addr serves (shardmap.Topology.ShardIDHash), the
	// topology's shard count, its epoch, and its fingerprint
	// (shardmap.Topology.Fingerprint). None of them reads an address: a shard
	// is its position. Another position or count than the server's fails the
	// handshake with ErrMisrouted; an epoch mismatch alone fails it with
	// ErrStaleEpoch (both wrapped in ErrServer). The sosrshard fan-out client
	// sets these; leave zero for unsharded datasets.
	ShardID          uint64
	ShardCount       int
	ShardEpoch       uint64
	ShardFingerprint uint64
	// Obs, when set, receives the client's metrics: connection events (dial,
	// reuse, stale_redial), sketch-cache hits/misses and a peel-iterations
	// histogram.
	Obs *obs.Registry
	// Trace, when set, samples a distributed trace per session: the root span
	// covers the whole session (wire accounting as attributes), "decode"
	// children cover Bob-side applies, and the span identity rides the hello
	// frame so the server's stage spans join the same trace. A span already in
	// the call's context (the sosrshard fan-out propagates one per attempt)
	// takes precedence over sampling: the session becomes a child of it.
	Trace *obs.Tracer
	// CacheBytes bounds the client's Bob-sketch cache: repeated sets-of-sets
	// sessions against the same dataset with the same local data subtract a
	// memoized child-encoding aggregate instead of re-encoding per session.
	// 0 selects enccache.DefaultMaxBytes; negative disables caching.
	CacheBytes int64

	cacheOnce sync.Once
	cache     *enccache.Cache
	metOnce   sync.Once
	met       *clientMetrics
	// dial, when non-nil, replaces the TCP dial — tests use it to count and
	// track the connections a session path opens and closes.
	dial func(ctx context.Context, addr string) (net.Conn, error)

	mu     sync.Mutex
	idle   []*clientConn // parked connections, the most recently used last
	closed bool          // Close was called: finished sessions close instead of parking
}

// Dial returns a client for the given server address. No connection is made
// until a reconcile method runs.
func Dial(addr string) *Client { return &Client{Addr: addr} }

// Close closes the connections the Client has parked. Sessions in flight
// finish normally and then close theirs; a Client used after Close still
// works, on a connection per session.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cc := range idle {
		cc.discard()
	}
	return nil
}

// clientConn is one connection to the server with Bob's endpoint on it. It
// carries one session at a time, on that session's goroutine; between
// sessions it sits in Client.idle, where nothing reads it and it holds no
// buffer.
type clientConn struct {
	conn net.Conn
	ep   *wire.Endpoint
	// sever closes the connection; stop detaches it from the running
	// session's context (nil when that context cannot be cancelled).
	sever func()
	stop  func() bool
	// The connection's control plane: the scratch its control frames are
	// encoded in and the closing report of its current session.
	ctl  []byte
	done doneMsg
}

// discard retires the connection for good.
func (cc *clientConn) discard() {
	_ = cc.conn.Close()
	cc.ep.EndSession()
}

// takeIdle returns the most recently parked connection as it is, or nil.
// Nothing reads a parked connection, so one the server has closed meanwhile
// (idle timer, shutdown) is found by the hello that fails on it (open).
func (c *Client) takeIdle() *clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.idle)
	if n == 0 {
		return nil
	}
	cc := c.idle[n-1]
	c.idle[n-1] = nil
	c.idle = c.idle[:n-1]
	return cc
}

// dialConn opens a fresh connection.
func (c *Client) dialConn(ctx context.Context) (*clientConn, error) {
	var conn net.Conn
	var err error
	if c.dial != nil {
		conn, err = c.dial(ctx, c.Addr)
	} else {
		d := net.Dialer{Timeout: c.Timeout}
		conn, err = d.DialContext(ctx, "tcp", c.Addr)
	}
	if err != nil {
		return nil, err
	}
	c.countConn(connDial)
	cc := &clientConn{conn: conn, ep: wire.NewEndpoint(conn, transport.Bob)}
	cc.sever = func() { _ = conn.Close() }
	return cc, nil
}

// clientSession is one session's state on the client: what the generic
// wrapper (session) and Bob's attempt loop (runFlow) share with the kind's
// own code. The hello and the accept live in it, and it lives in the kind's
// apply struct, so a session allocates one record for all three.
type clientSession struct {
	c     *Client
	ctx   context.Context
	sp    *obs.Span // session span; nil when untraced
	coins hashing.Coins
	h     helloMsg
	acc   acceptMsg
	cc    *clientConn // nil until open succeeds
	ep    *wire.Endpoint
	ns    *NetStats // set by done
}

// session runs one client session of any kind on cs, the record embedded in
// the kind's apply struct. It opens the session span — a child of the
// caller's context span when one is present (the sosrshard fan-out propagates
// one per shard attempt), otherwise a sampled root from c.Trace; nil, and
// free, when tracing is off — lets body fill the hello, open the connection
// (cs.open) and run Bob's side, then closes the books: the connection parked
// or closed by how the session ended, a severed connection re-labelled as the
// cancellation it was, the span finished with the accounting the caller gets
// (read from the same NetStats value, so a trace root's wire bytes equal the
// reported Stats by construction). body's last step on success is cs.done.
func session[R any](ctx context.Context, c *Client, cs *clientSession, name string, kind Kind, seed uint64, body func() (R, error)) (R, *NetStats, error) {
	sp := obs.SpanFromContext(ctx).Child("client/session")
	if sp == nil {
		sp = c.Trace.StartRoot("client/session")
	}
	sp.SetStr("dataset", name)
	sp.SetStr("kind", string(kind))
	sp.SetStr("server", c.Addr)
	*cs = clientSession{c: c, ctx: ctx, sp: sp, coins: hashing.NewCoins(seed)}
	cs.h = helloMsg{Dataset: name, Kind: kind, Seed: seed}
	res, err := body()
	if cs.cc != nil {
		c.finish(ctx, cs.cc, err)
	}
	err = ctxErr(ctx, err)
	if ns := cs.ns; ns != nil {
		sp.SetInt("proto_bytes", int64(ns.Protocol.TotalBytes))
		sp.SetInt("wire_in", ns.WireIn)
		sp.SetInt("wire_out", ns.WireOut)
		sp.SetInt("overhead", ns.Overhead)
		sp.SetInt("attempts", int64(ns.Attempts))
		sp.SetInt("rounds", int64(ns.Protocol.Rounds))
	}
	sp.Fail(err)
	sp.Finish()
	return res, cs.ns, err
}

// done closes a successful session: the client's report goes to the server and
// the session's accounting is fixed. It returns the protocol stats for the
// result.
func (cs *clientSession) done(attempts int) sosr.Stats {
	cs.cc.sendDone(true, nil, attempts)
	cs.ns = netStats(cs.ep, attempts)
	return cs.ns.Protocol
}

// open starts the session on the wire: it takes a parked connection or dials
// one, arms the session's deadline and cancellation, and runs the handshake
// with cs.h, leaving the server's answer in cs.acc. On success the session
// owns the connection until finish; on error nothing is left open.
func (cs *clientSession) open() error {
	c, ctx := cs.c, cs.ctx
	if err := ctx.Err(); err != nil {
		return err
	}
	cc := c.takeIdle()
	reused := cc != nil
	for {
		if cc == nil {
			var err error
			if cc, err = c.dialConn(ctx); err != nil {
				return err
			}
		}
		if c.Timeout > 0 {
			_ = cc.conn.SetDeadline(time.Now().Add(c.Timeout))
		}
		// A blocked read or write observes cancellation only through the
		// socket: sever it the moment ctx is done.
		if ctx.Done() != nil {
			cc.stop = context.AfterFunc(ctx, cc.sever)
		}
		err := cs.hello(cc)
		if err == nil {
			if reused {
				c.countConn(connReuse)
			}
			cs.cc, cs.ep = cc, cc.ep
			return nil
		}
		// The server may have closed a parked connection (idle timer, restart)
		// at any time since the last session, or just as this hello is written;
		// either way the connection fails before the session's first frame
		// arrives. Sessions only read on the server, so the hello is replayed
		// once on a fresh connection, whose failures are the caller's to see.
		stale := reused && cc.ep.Err() != nil && cc.ep.BytesRead() == 0 && ctx.Err() == nil
		c.finish(ctx, cc, err)
		if !stale {
			return err
		}
		c.countConn(connStaleRedial)
		cc, reused = nil, false
	}
}

// finish ends the session on cc. The connection is parked for the Client's
// next session only after a cleanly finished conversation — err is what the
// session is about to return, and every nil-error path has written its
// ctl/done — with no endpoint error and a context that is still live;
// otherwise it is closed.
func (c *Client) finish(ctx context.Context, cc *clientConn, err error) {
	if cc.stop != nil {
		cc.stop()
		cc.stop = nil
	}
	// stop() and then ctx.Err(): a context that fired before stop has
	// already run (or will run) sever, and shows as done here.
	if err != nil || cc.ep.Err() != nil || ctx.Err() != nil {
		cc.discard()
		return
	}
	cc.ep.EndSession()
	if c.Timeout > 0 {
		_ = cc.conn.SetDeadline(time.Time{})
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.discard()
		return
	}
	c.idle = append(c.idle, cc)
	c.mu.Unlock()
}

// ctxErr re-labels an error once ctx is done: a severed connection surfaces
// as an opaque IO failure, but the caller's truth is the cancellation.
func ctxErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w (%v)", ctx.Err(), err)
	}
	return err
}

// hello sends cs.h and reads the server's answer into cs.acc. The accept is
// checked as the server checks a hello (checkAccept) before anything is sized
// from it; one that fails is refused to the server's face.
func (cs *clientSession) hello(cc *clientConn) error {
	c, h, ep := cs.c, &cs.h, cc.ep
	h.V = protoVersion
	h.ShardID, h.ShardCount, h.ShardEpoch, h.ShardSet = c.ShardID, c.ShardCount, c.ShardEpoch, c.ShardFingerprint
	if cs.sp != nil {
		h.TraceID, h.SpanID = uint64(cs.sp.TraceID()), uint64(cs.sp.ID())
	}
	cc.ctl = appendCtl(cc.ctl[:0], helloFields, h)
	if err := ep.SendFrame(lblHello, cc.ctl); err != nil {
		return err
	}
	payload, err := recvOrServerError(ep, lblAccept)
	if err != nil {
		return err
	}
	if err := parseCtl(acceptFields, payload, &cs.acc); err != nil {
		return fmt.Errorf("sosrnet: malformed accept frame: %v", err)
	}
	if err := checkAccept(h, &cs.acc); err != nil {
		cc.sendDone(false, err, 0)
		return err
	}
	return nil
}

// sendDone reports the client's view; the protocol stats mirror the
// endpoint's recorder.
func (cc *clientConn) sendDone(ok bool, cause error, attempts int) {
	st := cc.ep.Stats()
	cc.done = doneMsg{OK: ok, Rounds: st.Rounds, Bytes: st.TotalBytes, Messages: st.Messages, Attempts: attempts}
	if cause != nil {
		cc.done.Error = cause.Error()
	}
	cc.ctl = appendCtl(cc.ctl[:0], doneFields, &cc.done)
	_ = cc.ep.SendFrame(lblDone, cc.ctl)
}

func netStats(ep *wire.Endpoint, attempts int) *NetStats {
	st := ep.Stats()
	in, out := ep.WireBytes()
	return &NetStats{
		Protocol: st, WireIn: in, WireOut: out,
		Overhead: in + out - int64(st.TotalBytes), Attempts: attempts,
	}
}

// Sets reconciles a local set against the hosted set `name`: the client ends
// up with the server's set. cfg mirrors sosr.ReconcileSets. local is read only
// during the call, in place when it is already canonical, and the result
// shares no memory with it. Cancelling ctx severs the session.
func (c *Client) Sets(ctx context.Context, name string, local []uint64, cfg sosr.SetConfig) (*sosr.SetResult, *NetStats, error) {
	ap := &setApply{}
	return session(ctx, c, &ap.clientSession, name, KindSet, cfg.Seed, func() (*sosr.SetResult, error) {
		if cfg.UseCharPoly && cfg.KnownDiff <= 0 {
			return nil, errors.New("sosrnet: UseCharPoly requires KnownDiff > 0")
		}
		ap.bob = setutil.CanonicalView(local)
		ap.h.D, ap.h.CharPoly = max(cfg.KnownDiff, 0), cfg.UseCharPoly
		if err := ap.run(); err != nil {
			return nil, err
		}
		res := ap.res
		return &sosr.SetResult{Recovered: res.Recovered, OnlyA: res.OnlyA, OnlyB: res.OnlyB, Stats: ap.done(1)}, nil
	})
}

// Multiset reconciles a local multiset against the hosted multiset `name`
// via the §3.4 packing; diffBound bounds the packed-set difference (pass 2×
// the multiset edit distance), mirroring sosr.ReconcileMultisets. diffBound
// ≤ 0 runs the estimator variant over the packed sets, as in process.
func (c *Client) Multiset(ctx context.Context, name string, local []uint64, diffBound int, seed uint64) ([]uint64, *NetStats, error) {
	ap := &setApply{}
	return session(ctx, c, &ap.clientSession, name, KindMultiset, seed, func() ([]uint64, error) {
		packed, err := setrecon.MultisetToSet(local)
		if err != nil {
			return nil, err
		}
		ap.bob = packed
		ap.h.D = max(diffBound, 0)
		if err := ap.run(); err != nil {
			return nil, err
		}
		// The recovered words are the server's: one outside the §3.4 packing
		// fails the session (setrecon.ErrMultisetRange) instead of being expanded.
		rec, err := setrecon.SetToMultiset(ap.res.Recovered)
		if err != nil {
			ap.cc.sendDone(false, err, 1)
			return nil, err
		}
		ap.done(1)
		return rec, nil
	})
}

// setApply is Bob's side of a set or packed-multiset session: the estimator
// probe when d is unknown (the server's unknown-d flow waits for it), then
// Alice's one payload.
type setApply struct {
	clientSession
	bob []uint64 // canonical local set, or the canonical packing of the local multiset
	res *setrecon.Result
}

// run opens the session and runs the row the hello selects.
func (a *setApply) run() error {
	if err := a.open(); err != nil {
		return err
	}
	_, err := a.runFlow(a.h.setFlow(), a)
	return err
}

func (a *setApply) probe(coins hashing.Coins) []byte {
	return setrecon.BuildDiffEstimator(coins, a.bob)
}

func (a *setApply) apply(_ int, coins hashing.Coins, frames [2][]byte) (err error) {
	dsp := a.sp.Child("decode")
	if a.h.CharPoly {
		a.res, err = setrecon.ApplyCharPolyMsg(coins, frames[0], a.bob, a.h.D)
	} else {
		a.res, err = setrecon.ApplyIBLTMsg(coins, frames[0], a.bob)
	}
	endDecode(dsp, err)
	return err
}

// endDecode closes a decode span. An attempt that fails to decode is an
// expected protocol outcome (it drives the retry loops), so the span records
// ok=false rather than a span error — only broken sessions flag traces.
func endDecode(dsp *obs.Span, err error) {
	dsp.SetBool("ok", err == nil)
	dsp.Finish()
}

// noProbe is embedded by the kinds whose flows never open with a probe.
type noProbe struct{}

func (noProbe) probe(hashing.Coins) []byte { return nil }

// SetsOfSets reconciles a local parent set against the hosted sets-of-sets
// `name`, mirroring sosr.ReconcileSetsOfSets (all four protocol families,
// known- and unknown-d variants). local is read only during the call, in
// place when every child set is already canonical, and the result shares no
// memory with it. Cancelling ctx severs the session.
func (c *Client) SetsOfSets(ctx context.Context, name string, local [][]uint64, cfg sosr.Config) (*sosr.Result, *NetStats, error) {
	ap := &sosApply{name: name}
	return session(ctx, c, &ap.clientSession, name, KindSetsOfSets, cfg.Seed, func() (*sosr.Result, error) {
		ap.bob = setutil.CanonicalSetsView(local)
		// Bob's need rides the hello; whether his data fits the shape is
		// checked against the accepted one, so the server hears of a refusal.
		_, need, _ := core.Params{}.Resolve(ap.bob, core.Params{})
		h, acc := &ap.h, &ap.acc
		h.D, h.DHat, h.Replicas = max(cfg.KnownDiff, 0), max(cfg.KnownChildDiff, 0), max(cfg.Replicas, 0)
		if cfg.Protocol != sosr.ProtocolAuto {
			if h.Protocol = cfg.Protocol.String(); sosFamilyOf(h.Protocol) == nil {
				return nil, fmt.Errorf("%w: protocol %q", ErrUnsupported, h.Protocol)
			}
		}
		h.S, h.H, h.U, h.CS, h.CH, h.Validate = max(cfg.MaxChildSets, 0), max(cfg.MaxChildSize, 0), cfg.Universe, len(ap.bob), need.H, cfg.Validate
		if h.U == 0 {
			h.CU = need.U
		}
		if err := ap.open(); err != nil {
			return nil, err
		}
		ap.fam = sosFamilyOf(acc.Protocol)
		err := ap.check(cfg.Validate)
		if err != nil {
			return nil, err
		}
		var attempts int
		if ap.fl = ap.fam.flow(acc.D); ap.fl == nil {
			attempts, err = ap.multiRound()
		} else {
			attempts, err = ap.runFlow(ap.fl, ap)
		}
		if err != nil {
			return nil, err
		}
		res := ap.res
		return &sosr.Result{
			Recovered: res.Recovered, Added: res.Added, Removed: res.Removed,
			Stats: ap.done(attempts), Attempts: attempts, Protocol: ap.fam.proto,
		}, nil
	})
}

// check resolves the accepted plan against Bob's own data before anything is
// encoded under it: the protocol must be one of the families, and the accepted
// shape — it sizes Bob's encoders too — must cover his data whether the bound
// came from his own config or from the peer. A refusal is reported to the
// server.
func (a *sosApply) check(validate bool) (err error) {
	acc := &a.acc
	if a.fam == nil {
		return fmt.Errorf("%w: server resolved protocol %q", ErrUnsupported, acc.Protocol)
	}
	a.p, _, err = core.Params{S: acc.S, H: acc.H, U: acc.U}.Resolve(a.bob, core.Params{})
	if err != nil {
		err = fmt.Errorf("local replica: %w", err)
	} else if validate {
		err = core.Validate(a.bob, a.p)
	}
	if err != nil {
		a.cc.sendDone(false, err, 0)
	}
	return err
}

func (a *sosApply) probe(coins hashing.Coins) []byte {
	return core.BuildChildDiffProbe(coins, a.bob, a.p)
}

// multiRound mirrors the Theorem 3.9/3.10 client side, with the §3.2
// replication loop when d is known. Multi-round payloads depend on
// interactive per-session state, so this path is uncached; peel metrics are
// still observed.
func (a *sosApply) multiRound() (int, error) {
	cs, bob, p := &a.clientSession, a.bob, a.p
	ep, acc := cs.ep, &cs.acc
	attempts := acc.Replicas
	if acc.D <= 0 {
		attempts = 1
		if err := cs.sendProbe("childdiff-estimator", a); err != nil {
			return 0, err
		}
	}
	// Only the last failed round's retry ends the loop: ErrGaveUp and its cause.
	for r := 0; ; r++ {
		c := cs.coins
		if acc.D > 0 {
			c = c.Sub("replica", r)
		}
		msg1, err := recvOrServerError(ep, "hash-iblt")
		if err != nil {
			return 0, err
		}
		round2, st, err := core.MRBob2(c, bob, p, msg1)
		if err != nil {
			if err := cs.retry(replicated, r, attempts, err); err != nil {
				return 0, err
			}
			continue
		}
		if err := ep.SendFrame("hash-iblt+estimators", round2); err != nil {
			return 0, err
		}
		msg3, err := recvOrServerError(ep, "pair-payloads")
		if err != nil {
			return 0, err
		}
		dsp := cs.sp.Child("decode")
		dsp.SetInt("round", int64(r+1))
		a.res, err = core.MRBobFinish(c, bob, st, msg3)
		endDecode(dsp, err)
		if err != nil {
			if err := cs.retry(replicated, r, attempts, err); err != nil {
				return 0, err
			}
			continue
		}
		cs.c.observePeels(a.res.PeelIterations)
		return r + 1, nil
	}
}

// Graph reconciles a local graph against the hosted graph `name`: the client
// ends up with a graph isomorphic to the server's. cfg mirrors
// sosr.ReconcileGraphs (degree-ordering, degree-neighborhood and polynomial
// schemes). Cancelling ctx severs the session.
func (c *Client) Graph(ctx context.Context, name string, local sosr.Graph, cfg sosr.GraphConfig) (*sosr.GraphResult, *NetStats, error) {
	ap := &graphApply{}
	return session(ctx, c, &ap.clientSession, name, KindGraph, cfg.Seed, func() (*sosr.GraphResult, error) {
		gb, err := graph.FromEdges(local.N, local.Edges)
		if err != nil {
			return nil, err
		}
		ap.gb = gb
		h := &ap.h
		h.D, h.N = max(cfg.MaxEdits, 1), gb.N
		switch cfg.Scheme {
		case sosr.SchemeDegreeOrdering:
			if cfg.TopDegrees < 1 {
				return nil, errors.New("sosrnet: SchemeDegreeOrdering requires TopDegrees (h)")
			}
			h.Scheme, h.TopH = "degree", cfg.TopDegrees
		case sosr.SchemeDegreeNeighborhood:
			if cfg.DegreeThreshold < 1 {
				return nil, errors.New("sosrnet: SchemeDegreeNeighborhood requires DegreeThreshold (m)")
			}
			h.Scheme, h.M = "neighborhood", cfg.DegreeThreshold
			if ap.side, err = graphrecon.NeighborhoodEncode(gb, h.M); err != nil {
				return nil, err
			}
			h.MaxSig = ap.side.MaxSig
		case sosr.SchemePolynomial:
			if _, _, err := graphrecon.PolyShape(gb.N, h.D); err != nil {
				return nil, err
			}
			h.Scheme = "polynomial"
		default:
			return nil, fmt.Errorf("%w: graph scheme %d", ErrUnsupported, cfg.Scheme)
		}
		if err := ap.open(); err != nil {
			return nil, err
		}
		if _, err := ap.runFlow(h.graphFlow(), ap); err != nil {
			return nil, err
		}
		return &sosr.GraphResult{Recovered: sosr.Graph{N: ap.g.N, Edges: ap.g.Edges()}, Stats: ap.done(1)}, nil
	})
}

// graphApply is Bob's side of a graph session; side is set by the
// neighbourhood scheme alone.
type graphApply struct {
	noProbe
	clientSession
	gb   *graph.Graph
	side *graphrecon.NbrSide
	g    *graph.Graph
}

func (a *graphApply) apply(_ int, coins hashing.Coins, frames [2][]byte) (err error) {
	h := &a.h
	dsp := a.sp.Child("decode")
	switch {
	case h.graphFlow() == &flowGraphPoly:
		a.g, err = graphrecon.PolyApply(a.gb, h.D, frames[0])
	case a.side == nil:
		a.g, err = graphrecon.DegreeOrderApply(coins, a.gb, graphrecon.DegreeOrderParams{H: h.TopH, D: h.D}, frames[0], frames[1])
	default:
		a.g, err = graphrecon.NeighborhoodApply(coins, a.gb, graphrecon.NeighborhoodParams{M: h.M, D: h.D}, a.side, a.acc.MaxSig, frames[0], frames[1])
	}
	endDecode(dsp, err)
	return err
}

// Forest reconciles a local rooted forest against the hosted forest `name`:
// the client ends up with a forest isomorphic to the server's. cfg mirrors
// sosr.ReconcileForests (known-budget and auto-doubling variants).
// Cancelling ctx severs the session.
func (c *Client) Forest(ctx context.Context, name string, local sosr.Forest, cfg sosr.ForestConfig) (*sosr.ForestResult, *NetStats, error) {
	ap := &forestApply{}
	return session(ctx, c, &ap.clientSession, name, KindForest, cfg.Seed, func() (*sosr.ForestResult, error) {
		fb := &forest.Forest{Parent: append([]int32(nil), local.Parent...)}
		if err := fb.Validate(); err != nil {
			return nil, err
		}
		ap.fb, ap.info = fb, forest.Measure(fb)
		h := &ap.h
		h.D, h.Sigma = max(cfg.MaxEdits, 0), max(cfg.Depth, 0)
		h.N, h.Depth, h.MaxChild = ap.info.N, ap.info.Depth, ap.info.MaxChild
		if err := ap.open(); err != nil {
			return nil, err
		}
		attempts, err := ap.runFlow(h.forestFlow(), ap)
		if err != nil {
			return nil, err
		}
		return &sosr.ForestResult{Recovered: sosr.Forest{Parent: ap.rec.Parent}, Stats: ap.done(attempts)}, nil
	})
}

// forestApply is Bob's side of a forest session: attempt k plans, from both
// parties' side info, exactly as the server's forestPlan.build does.
type forestApply struct {
	noProbe
	clientSession
	fb   *forest.Forest
	info forest.SideInfo
	rec  *forest.Forest
}

func (a *forestApply) apply(k int, coins hashing.Coins, frames [2][]byte) (err error) {
	acc := &a.acc
	rp, params := forest.Plan(forest.SideInfo{N: acc.N, Depth: acc.Depth, MaxChild: acc.MaxChild}, a.info, a.h.forestAsk(k))
	dsp := a.sp.Child("decode")
	a.rec, err = forest.Apply(coins, a.fb, rp, params, frames[0], frames[1])
	endDecode(dsp, err)
	return err
}
