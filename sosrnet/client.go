package sosrnet

import (
	"context"
	"encoding/json"
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
// parked connection the server has meanwhile closed is noticed and dropped
// when it is taken; if the close races the new hello, the session is replayed
// once on a fresh connection — the server only reads during a session, so
// that is safe — and a failure on a fresh connection is reported as it is.
// Close releases the parked connections; a Client that is dropped without it
// keeps them until the server's idle timer closes them.
//
// A Client is safe for concurrent use.
type Client struct {
	// Addr is the server's "host:port".
	Addr string
	// Timeout bounds each whole session (dial, or taking a parked
	// connection, through the closing frame) when positive.
	Timeout time.Duration
	// MaxFrame bounds accepted frame payloads (0 = wire.DefaultMaxPayload).
	MaxFrame int
	// ShardID/ShardCount/ShardEpoch/ShardFingerprint are sent with every
	// hello when ShardCount > 0: the canonical shard-identity hash
	// (shardmap.Topology.ShardIDHash) of the slice the client believes Addr
	// hosts, the topology's shard count, its epoch, and its order-invariant
	// fingerprint (shardmap.Topology.Fingerprint). A structural mismatch
	// with the server's configuration fails the handshake with ErrMisrouted;
	// an epoch mismatch alone fails it with ErrStaleEpoch (both wrapped in
	// ErrServer). The sosrshard fan-out client sets these; leave zero for
	// unsharded datasets.
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
	cache     *enccache.Cache // preset by the server pull path, which keeps Bob sketches in its encoding cache
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

// clientConn is one connection to the server with Bob's endpoint on it and
// pipelined reads: the server's next frame is decoded off the socket while
// the client is still applying the previous one. It carries one session at a
// time; between sessions it sits in Client.idle, its reader goroutine waiting
// for a frame header and holding no buffer.
type clientConn struct {
	conn net.Conn
	ep   *wire.Endpoint
	// sever closes the connection; stop detaches it from the running
	// session's context (nil when that context cannot be cancelled).
	sever func()
	stop  func() bool
}

// discard retires the connection for good.
func (cc *clientConn) discard() {
	cc.ep.StopReadAhead()
	_ = cc.conn.Close()
	cc.ep.EndSession()
}

// takeIdle returns the most recently parked connection that is still quiet,
// or nil. A parked connection's reader is blocked on the socket, so a server
// that has closed it (idle timer, shutdown) shows as a pending delivery and
// the connection is dropped here rather than tried.
func (c *Client) takeIdle() *clientConn {
	for {
		c.mu.Lock()
		n := len(c.idle)
		if n == 0 {
			c.mu.Unlock()
			return nil
		}
		cc := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		if !cc.ep.Pending() {
			return cc
		}
		cc.discard()
	}
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
	cc.ep.SetMaxPayload(c.MaxFrame)
	cc.ep.StartReadAhead()
	return cc, nil
}

// open starts a session: it takes a parked connection or dials one, arms the
// session's deadline and cancellation, and runs the handshake. On success the
// caller owns the connection and must hand it to finish on every exit path;
// on error nothing is left open.
func (c *Client) open(ctx context.Context, h *helloMsg, sp *obs.Span) (*clientConn, *acceptMsg, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	cc := c.takeIdle()
	reused := cc != nil
	for {
		if cc == nil {
			var err error
			if cc, err = c.dialConn(ctx); err != nil {
				return nil, nil, err
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
		acc, err := c.hello(cc.ep, h, sp)
		if err == nil {
			if reused {
				c.countConn(connReuse)
			}
			return cc, acc, nil
		}
		// The server may close a parked connection (idle timer, restart) just
		// as this hello is written; the connection then fails before the
		// session's first frame arrives. Sessions only read on the server, so
		// the hello is replayed once on a fresh connection, whose failures are
		// the caller's to see.
		stale := reused && cc.ep.Err() != nil && cc.ep.BytesRead() == 0 && ctx.Err() == nil
		c.finish(ctx, cc, err)
		if !stale {
			return nil, nil, err
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

func (c *Client) hello(ep *wire.Endpoint, h *helloMsg, sp *obs.Span) (*acceptMsg, error) {
	h.V = protoVersion
	h.ShardID, h.ShardCount, h.ShardEpoch, h.ShardSet = c.ShardID, c.ShardCount, c.ShardEpoch, c.ShardFingerprint
	if sp != nil {
		h.TraceID, h.SpanID = uint64(sp.TraceID()), uint64(sp.ID())
	}
	if err := ep.SendFrame(lblHello, marshalCtl(h)); err != nil {
		return nil, err
	}
	payload, err := recvOrServerError(ep, lblAccept)
	if err != nil {
		return nil, err
	}
	var acc acceptMsg
	if err := json.Unmarshal(payload, &acc); err != nil {
		return nil, fmt.Errorf("sosrnet: malformed accept frame: %v", err)
	}
	return &acc, nil
}

// sendDone reports the client's view; the protocol stats mirror the
// endpoint's recorder.
func sendDone(ep *wire.Endpoint, ok bool, cause error, attempts int) {
	st := ep.Stats()
	d := doneMsg{OK: ok, Rounds: st.Rounds, Bytes: st.TotalBytes, Messages: st.Messages, Attempts: attempts}
	if cause != nil {
		d.Error = cause.Error()
	}
	_ = ep.SendFrame(lblDone, marshalCtl(&d))
}

func netStats(ep *wire.Endpoint, attempts int) *NetStats {
	st := ep.Stats()
	in, out := ep.WireBytes()
	return &NetStats{
		Protocol: sosr.Stats{
			Rounds:     st.Rounds,
			TotalBytes: st.TotalBytes,
			AliceBytes: st.AliceBytes,
			BobBytes:   st.BobBytes,
			Messages:   st.Messages,
		},
		WireIn:   in,
		WireOut:  out,
		Overhead: in + out - int64(st.TotalBytes),
		Attempts: attempts,
	}
}

// startSpan opens a session's client span: a child of the caller's context
// span when one is present (the sosrshard fan-out propagates one per shard
// attempt), otherwise a sampled root from c.Trace. Nil — and free — when
// tracing is off.
func (c *Client) startSpan(ctx context.Context, name string, kind Kind) *obs.Span {
	sp := obs.SpanFromContext(ctx).Child("client/session")
	if sp == nil {
		sp = c.Trace.StartRoot("client/session")
	}
	sp.SetStr("dataset", name)
	sp.SetStr("kind", string(kind))
	sp.SetStr("server", c.Addr)
	return sp
}

// finishSpan closes a session span with the accounting the session returns.
// The byte attributes are read from the same NetStats value the caller hands
// back, so a trace root's wire bytes equal the reported Stats exactly — by
// construction, not by a parallel tally.
func (c *Client) finishSpan(sp *obs.Span, ns *NetStats, err error) {
	if sp == nil {
		return
	}
	if ns != nil {
		sp.SetInt("proto_bytes", int64(ns.Protocol.TotalBytes))
		sp.SetInt("wire_in", ns.WireIn)
		sp.SetInt("wire_out", ns.WireOut)
		sp.SetInt("overhead", ns.Overhead)
		sp.SetInt("attempts", int64(ns.Attempts))
		sp.SetInt("rounds", int64(ns.Protocol.Rounds))
	}
	sp.Fail(err)
	sp.Finish()
}

// Sets reconciles a local set against the hosted set `name`: the client ends
// up with the server's set. cfg mirrors sosr.ReconcileSets. Cancelling ctx
// severs the session.
func (c *Client) Sets(ctx context.Context, name string, local []uint64, cfg sosr.SetConfig) (*sosr.SetResult, *NetStats, error) {
	sp := c.startSpan(ctx, name, KindSet)
	res, ns, err := c.sets(ctx, name, local, cfg, sp)
	err = ctxErr(ctx, err)
	c.finishSpan(sp, ns, err)
	return res, ns, err
}

func (c *Client) sets(ctx context.Context, name string, local []uint64, cfg sosr.SetConfig, sp *obs.Span) (_ *sosr.SetResult, _ *NetStats, err error) {
	if cfg.UseCharPoly && cfg.KnownDiff <= 0 {
		return nil, nil, errors.New("sosrnet: UseCharPoly requires KnownDiff > 0")
	}
	bob := setutil.Canonical(local)
	cc, _, err := c.open(ctx, &helloMsg{
		Dataset: name, Kind: KindSet, Seed: cfg.Seed,
		D: cfg.KnownDiff, CharPoly: cfg.UseCharPoly,
	}, sp)
	if err != nil {
		return nil, nil, err
	}
	defer func() { c.finish(ctx, cc, err) }()
	res, err := applySet(cc.ep, hashing.NewCoins(cfg.Seed), bob, cfg.KnownDiff, cfg.UseCharPoly, sp)
	if err != nil {
		return nil, nil, err
	}
	sendDone(cc.ep, true, nil, 1)
	ns := netStats(cc.ep, 1)
	return &sosr.SetResult{
		Recovered: res.Recovered,
		OnlyA:     res.OnlyA,
		OnlyB:     res.OnlyB,
		Stats:     ns.Protocol,
	}, ns, nil
}

// applySet is Bob's side of a set or packed-multiset session after the
// handshake: the estimator probe when d is unknown (the server's unknown-d
// flow waits for it), then Alice's one payload, applied under a decode span.
// A failed apply has told the server so; a success leaves the closing frame
// to the caller.
func applySet(ep *wire.Endpoint, coins hashing.Coins, bob []uint64, d int, charPoly bool, sp *obs.Span) (*setrecon.Result, error) {
	label := "iblt"
	if charPoly {
		label = "charpoly"
	} else if d <= 0 {
		esp := sp.Child("estimate")
		probe := setrecon.BuildDiffEstimator(coins, bob)
		esp.Finish()
		if err := ep.SendFrame("estimator", probe); err != nil {
			return nil, err
		}
	}
	msg, err := recvOrServerError(ep, label)
	if err != nil {
		return nil, err
	}
	dsp := sp.Child("decode")
	var res *setrecon.Result
	if charPoly {
		res, err = setrecon.ApplyCharPolyMsg(coins, msg, bob, d)
	} else {
		res, err = setrecon.ApplyIBLTMsg(coins, msg, bob)
	}
	endDecode(dsp, err)
	if err != nil {
		sendDone(ep, false, err, 1)
	}
	return res, err
}

// endDecode closes a decode span. An attempt that fails to decode is an
// expected protocol outcome (it drives the retry loops), so the span records
// ok=false rather than a span error — only broken sessions flag traces.
func endDecode(dsp *obs.Span, err error) {
	dsp.SetBool("ok", err == nil)
	dsp.Finish()
}

// Multiset reconciles a local multiset against the hosted multiset `name`
// via the §3.4 packing; diffBound bounds the packed-set difference (pass 2×
// the multiset edit distance), mirroring sosr.ReconcileMultisets. diffBound
// ≤ 0 runs the estimator variant over the packed sets (a wire-only
// extension; the in-process API requires a known bound).
func (c *Client) Multiset(ctx context.Context, name string, local []uint64, diffBound int, seed uint64) ([]uint64, *NetStats, error) {
	sp := c.startSpan(ctx, name, KindMultiset)
	rec, ns, err := c.multiset(ctx, name, local, diffBound, seed, sp)
	err = ctxErr(ctx, err)
	c.finishSpan(sp, ns, err)
	return rec, ns, err
}

func (c *Client) multiset(ctx context.Context, name string, local []uint64, diffBound int, seed uint64, sp *obs.Span) (_ []uint64, _ *NetStats, err error) {
	packed, err := setrecon.MultisetToSet(local)
	if err != nil {
		return nil, nil, err
	}
	cc, _, err := c.open(ctx, &helloMsg{Dataset: name, Kind: KindMultiset, Seed: seed, D: diffBound}, sp)
	if err != nil {
		return nil, nil, err
	}
	defer func() { c.finish(ctx, cc, err) }()
	res, err := applySet(cc.ep, hashing.NewCoins(seed), packed, diffBound, false, sp)
	if err != nil {
		return nil, nil, err
	}
	// The recovered words are the server's: one outside the §3.4 packing
	// fails the session (setrecon.ErrMultisetRange) instead of being expanded.
	rec, err := setrecon.SetToMultiset(res.Recovered)
	if err != nil {
		sendDone(cc.ep, false, err, 1)
		return nil, nil, err
	}
	sendDone(cc.ep, true, nil, 1)
	return rec, netStats(cc.ep, 1), nil
}

// SetsOfSets reconciles a local parent set against the hosted sets-of-sets
// `name`, mirroring sosr.ReconcileSetsOfSets (all four protocol families,
// known- and unknown-d variants). Cancelling ctx severs the session.
func (c *Client) SetsOfSets(ctx context.Context, name string, local [][]uint64, cfg sosr.Config) (*sosr.Result, *NetStats, error) {
	sp := c.startSpan(ctx, name, KindSetsOfSets)
	res, ns, err := c.setsOfSets(ctx, name, local, cfg, sp)
	err = ctxErr(ctx, err)
	c.finishSpan(sp, ns, err)
	return res, ns, err
}

func (c *Client) setsOfSets(ctx context.Context, name string, local [][]uint64, cfg sosr.Config, sp *obs.Span) (_ *sosr.Result, _ *NetStats, err error) {
	bob := setutil.CanonicalSets(local)
	bobH := maxChildLen(bob)
	cc, acc, err := c.open(ctx, &helloMsg{
		Dataset: name, Kind: KindSetsOfSets, Seed: cfg.Seed,
		D: cfg.KnownDiff, Protocol: cfg.Protocol.String(), DHat: cfg.KnownChildDiff,
		Replicas: cfg.Replicas, S: cfg.MaxChildSets, H: cfg.MaxChildSize, U: cfg.Universe,
		CS: len(bob), CH: bobH, Validate: cfg.Validate,
	}, sp)
	if err != nil {
		return nil, nil, err
	}
	defer func() { c.finish(ctx, cc, err) }()
	ep := cc.ep
	p, err := core.Params{S: acc.S, H: acc.H, U: acc.U}.Normalized()
	if err != nil {
		return nil, nil, err
	}
	// The accepted shape sizes Bob's encoders too: it must cover his data
	// whether the bound came from his own config or from the peer.
	if len(bob) > p.S || bobH > p.H {
		err := fmt.Errorf("%w: local replica (%d child sets, largest %d) exceeds the accepted shape s=%d h=%d",
			core.ErrInvalidInstance, len(bob), bobH, p.S, p.H)
		sendDone(ep, false, err, 0)
		return nil, nil, err
	}
	if cfg.Validate {
		if err := core.Validate(bob, p); err != nil {
			sendDone(ep, false, err, 0)
			return nil, nil, err
		}
	}
	coins := hashing.NewCoins(cfg.Seed)
	ap := &sosApply{c: c, name: name, bob: bob, p: p, sp: sp}
	var res *core.Result
	var attempts int
	switch acc.Protocol {
	case "naive":
		if acc.D > 0 {
			res, attempts, err = ap.replicatedOneShot(ep, coins, acc, core.DigestNaive, "naive-iblt")
		} else {
			if err = ap.sendChildDiffProbe(ep, coins); err != nil {
				return nil, nil, err
			}
			res, attempts, err = ap.oneShot(ep, coins, 1, 0, core.DigestNaive, "naive-iblt")
		}
	case "nested":
		if acc.D > 0 {
			res, attempts, err = ap.replicatedOneShot(ep, coins, acc, core.DigestNested, "nested-iblt")
		} else {
			res, attempts, err = ap.doubling(ep, coins, core.DigestNested, "nested-iblt")
		}
	case "cascade":
		if acc.D > 0 {
			res, attempts, err = ap.replicatedOneShot(ep, coins, acc, core.DigestCascade, "cascade-iblts")
		} else {
			res, attempts, err = ap.doubling(ep, coins, core.DigestCascade, "cascade-iblts")
		}
	case "multiround":
		res, attempts, err = ap.multiRound(ep, coins, acc)
	default:
		err = fmt.Errorf("%w: server resolved protocol %q", ErrUnsupported, acc.Protocol)
	}
	if err != nil {
		return nil, nil, err
	}
	ns := netStats(ep, attempts)
	return &sosr.Result{
		Recovered: res.Recovered,
		Added:     res.Added,
		Removed:   res.Removed,
		Stats:     ns.Protocol,
		Attempts:  attempts,
		Protocol:  parseProtocol(acc.Protocol),
	}, ns, nil
}

func parseProtocol(s string) sosr.Protocol {
	switch s {
	case "naive":
		return sosr.ProtocolNaive
	case "nested":
		return sosr.ProtocolNested
	case "cascade":
		return sosr.ProtocolCascade
	case "multiround":
		return sosr.ProtocolMultiRound
	}
	return sosr.ProtocolAuto
}

// sendChildDiffProbe builds Bob's unknown-d̂ probe under an estimate span and
// sends it.
func (a *sosApply) sendChildDiffProbe(ep *wire.Endpoint, coins hashing.Coins) error {
	esp := a.sp.Child("estimate")
	probe := core.BuildChildDiffProbe(coins, a.bob, a.p)
	esp.Finish()
	return ep.SendFrame("childdiff-estimator", probe)
}

// oneShot consumes a single one-round payload. It stays on the uncached
// apply path: the naive unknown-d flow reaches here, where the server derives
// dHat from the probe — the client cannot key a sketch on a bound it never
// learns. Peel metrics are still observed.
func (a *sosApply) oneShot(ep *wire.Endpoint, coins hashing.Coins, d, dHat int, kind core.DigestKind, label string) (*core.Result, int, error) {
	body, err := recvOrServerError(ep, label)
	if err != nil {
		return nil, 0, err
	}
	dsp := a.sp.Child("decode")
	dsp.SetInt("d", int64(d))
	res, err := core.ApplyMsg(kind, coins, body, a.bob, a.p, d, dHat)
	endDecode(dsp, err)
	if err != nil {
		sendDone(ep, false, err, 1)
		return nil, 0, err
	}
	a.c.observePeels(res.PeelIterations)
	sendDone(ep, true, nil, 1)
	return res, 1, nil
}

// replicatedOneShot mirrors core.Replicated: up to Replicas attempts with
// fresh per-attempt coins, requesting each retry with a control frame. Each
// attempt subtracts the cached Bob sketch for its derived coins.
func (a *sosApply) replicatedOneShot(ep *wire.Endpoint, coins hashing.Coins, acc *acceptMsg, kind core.DigestKind, label string) (*core.Result, int, error) {
	var lastErr error
	for r := 0; r < acc.Replicas; r++ {
		body, err := recvOrServerError(ep, label)
		if err != nil {
			return nil, 0, err
		}
		res, err := a.apply(coins.Sub("replica", r), body, kind, acc.D, acc.DHat)
		if err == nil {
			sendDone(ep, true, nil, r+1)
			return res, r + 1, nil
		}
		lastErr = err
		if r+1 < acc.Replicas {
			if err := ep.SendFrame(lblRetry, nil); err != nil {
				return nil, 0, err
			}
		}
	}
	err := fmt.Errorf("%w: %v", ErrGaveUp, lastErr)
	sendDone(ep, false, err, acc.Replicas)
	return nil, 0, err
}

// doubling mirrors core's doublingLoop: attempt k applies the d = 2^k
// payload, answering with the protocol "ack"/"retry" frames the in-process
// run records. Each attempt's (coins, d, dHat) triple keys its own cached
// sketch.
func (a *sosApply) doubling(ep *wire.Endpoint, coins hashing.Coins, kind core.DigestKind, label string) (*core.Result, int, error) {
	var lastErr error
	for k := 0; k < maxDoublingAttempts; k++ {
		d := 1 << k
		body, err := recvOrServerError(ep, label)
		if err != nil {
			if lastErr != nil {
				return nil, 0, fmt.Errorf("%w (last attempt: %v)", err, lastErr)
			}
			return nil, 0, err
		}
		res, err := a.apply(coins.Sub("doubling-attempt", k), body, kind, d, core.DHat(d, a.p.S))
		if err == nil {
			if err := ep.SendFrame("ack", []byte{1}); err != nil {
				return nil, 0, err
			}
			sendDone(ep, true, nil, k+1)
			return res, k + 1, nil
		}
		lastErr = err
		if err := ep.SendFrame("retry", []byte{0}); err != nil {
			return nil, 0, err
		}
	}
	return nil, 0, fmt.Errorf("%w: %v", ErrGaveUp, lastErr)
}

// multiRound mirrors the Theorem 3.9/3.10 client side, with the §3.2
// replication loop when d is known. Multi-round payloads depend on
// interactive per-session state, so this path is uncached; peel metrics are
// still observed.
func (a *sosApply) multiRound(ep *wire.Endpoint, coins hashing.Coins, acc *acceptMsg) (*core.Result, int, error) {
	bob, p := a.bob, a.p
	attempts := acc.Replicas
	if acc.D <= 0 {
		attempts = 1
		if err := a.sendChildDiffProbe(ep, coins); err != nil {
			return nil, 0, err
		}
	}
	var lastErr error
	for r := 0; r < attempts; r++ {
		c := coins
		if acc.D > 0 {
			c = coins.Sub("replica", r)
		}
		retryOrFail := func(cause error) error {
			lastErr = cause
			if r+1 < attempts {
				return ep.SendFrame(lblRetry, nil)
			}
			err := fmt.Errorf("%w: %v", ErrGaveUp, cause)
			sendDone(ep, false, err, attempts)
			return nil
		}
		msg1, err := recvOrServerError(ep, "hash-iblt")
		if err != nil {
			return nil, 0, err
		}
		round2, st, err := core.MRBob2(c, bob, p, msg1)
		if err != nil {
			if ferr := retryOrFail(err); ferr != nil {
				return nil, 0, ferr
			}
			continue
		}
		if err := ep.SendFrame("hash-iblt+estimators", round2); err != nil {
			return nil, 0, err
		}
		msg3, err := recvOrServerError(ep, "pair-payloads")
		if err != nil {
			return nil, 0, err
		}
		dsp := a.sp.Child("decode")
		dsp.SetInt("round", int64(r+1))
		res, err := core.MRBobFinish(c, bob, st, msg3)
		endDecode(dsp, err)
		if err != nil {
			if ferr := retryOrFail(err); ferr != nil {
				return nil, 0, ferr
			}
			continue
		}
		a.c.observePeels(res.PeelIterations)
		sendDone(ep, true, nil, r+1)
		return res, r + 1, nil
	}
	return nil, 0, fmt.Errorf("%w: %v", ErrGaveUp, lastErr)
}

// Graph reconciles a local graph against the hosted graph `name`: the client
// ends up with a graph isomorphic to the server's. cfg mirrors
// sosr.ReconcileGraphs (degree-ordering and degree-neighborhood schemes).
// Cancelling ctx severs the session.
func (c *Client) Graph(ctx context.Context, name string, local sosr.Graph, cfg sosr.GraphConfig) (*sosr.GraphResult, *NetStats, error) {
	sp := c.startSpan(ctx, name, KindGraph)
	res, ns, err := c.graph(ctx, name, local, cfg, sp)
	err = ctxErr(ctx, err)
	c.finishSpan(sp, ns, err)
	return res, ns, err
}

func (c *Client) graph(ctx context.Context, name string, local sosr.Graph, cfg sosr.GraphConfig, sp *obs.Span) (_ *sosr.GraphResult, _ *NetStats, err error) {
	gb := toGraph(local)
	d := cfg.MaxEdits
	if d < 1 {
		d = 1
	}
	h := &helloMsg{Dataset: name, Kind: KindGraph, Seed: cfg.Seed, D: d, N: gb.N}
	switch cfg.Scheme {
	case sosr.SchemeDegreeOrdering:
		if cfg.TopDegrees < 1 {
			return nil, nil, errors.New("sosrnet: SchemeDegreeOrdering requires TopDegrees (h)")
		}
		h.Scheme = "degree"
		h.TopH = cfg.TopDegrees
	case sosr.SchemeDegreeNeighborhood:
		if cfg.DegreeThreshold < 1 {
			return nil, nil, errors.New("sosrnet: SchemeDegreeNeighborhood requires DegreeThreshold (m)")
		}
		h.Scheme = "neighborhood"
		h.M = cfg.DegreeThreshold
	default:
		return nil, nil, fmt.Errorf("%w: graph scheme %d has no wire protocol (use the in-process API)", ErrUnsupported, cfg.Scheme)
	}
	var side *graphrecon.NbrSide
	if h.Scheme == "neighborhood" {
		if side, err = graphrecon.NeighborhoodEncode(gb, cfg.DegreeThreshold); err != nil {
			return nil, nil, err
		}
		h.MaxSig = side.MaxSig
	}
	cc, acc, err := c.open(ctx, h, sp)
	if err != nil {
		return nil, nil, err
	}
	defer func() { c.finish(ctx, cc, err) }()
	ep := cc.ep
	coins := hashing.NewCoins(cfg.Seed)
	sig, err := recvOrServerError(ep, "cascade-iblts")
	if err != nil {
		return nil, nil, err
	}
	edges, err := recvOrServerError(ep, "edge-iblt")
	if err != nil {
		return nil, nil, err
	}
	dsp := sp.Child("decode")
	var g *graph.Graph
	if h.Scheme == "degree" {
		g, err = graphrecon.DegreeOrderApply(coins, gb, graphrecon.DegreeOrderParams{H: h.TopH, D: d}, sig, edges)
	} else {
		g, err = graphrecon.NeighborhoodApply(coins, gb, graphrecon.NeighborhoodParams{M: h.M, D: d}, side, acc.MaxSig, sig, edges)
	}
	endDecode(dsp, err)
	if err != nil {
		sendDone(ep, false, err, 1)
		return nil, nil, err
	}
	sendDone(ep, true, nil, 1)
	ns := netStats(ep, 1)
	return &sosr.GraphResult{Recovered: fromGraph(g), Stats: ns.Protocol}, ns, nil
}

// Forest reconciles a local rooted forest against the hosted forest `name`:
// the client ends up with a forest isomorphic to the server's. cfg mirrors
// sosr.ReconcileForests (known-budget and auto-doubling variants).
// Cancelling ctx severs the session.
func (c *Client) Forest(ctx context.Context, name string, local sosr.Forest, cfg sosr.ForestConfig) (*sosr.ForestResult, *NetStats, error) {
	sp := c.startSpan(ctx, name, KindForest)
	res, ns, err := c.forest(ctx, name, local, cfg, sp)
	err = ctxErr(ctx, err)
	c.finishSpan(sp, ns, err)
	return res, ns, err
}

func (c *Client) forest(ctx context.Context, name string, local sosr.Forest, cfg sosr.ForestConfig, sp *obs.Span) (_ *sosr.ForestResult, _ *NetStats, err error) {
	fb := toForest(local)
	if err := fb.Validate(); err != nil {
		return nil, nil, err
	}
	info := forest.Measure(fb)
	cc, acc, err := c.open(ctx, &helloMsg{
		Dataset: name, Kind: KindForest, Seed: cfg.Seed,
		D: cfg.MaxEdits, Sigma: cfg.Depth,
		N: info.N, Depth: info.Depth, MaxChild: info.MaxChild,
	}, sp)
	if err != nil {
		return nil, nil, err
	}
	defer func() { c.finish(ctx, cc, err) }()
	ep := cc.ep
	infoA := forest.SideInfo{N: acc.N, Depth: acc.Depth, MaxChild: acc.MaxChild}
	coins := hashing.NewCoins(cfg.Seed)
	// recvAttempt separates connection failures (commErr, which end the
	// session) from reconciliation failures (applyErr, which drive the
	// doubling retry loop).
	recvAttempt := func(att hashing.Coins, rp forest.ReconParams, params core.Params) (rec *forest.Forest, applyErr, commErr error) {
		sig, err := recvOrServerError(ep, "cascade-iblts")
		if err != nil {
			return nil, nil, err
		}
		meta, err := recvOrServerError(ep, "forest-meta")
		if err != nil {
			return nil, nil, err
		}
		dsp := sp.Child("decode")
		rec, applyErr = forest.Apply(att, fb, rp, params, sig, meta)
		endDecode(dsp, applyErr)
		return rec, applyErr, nil
	}
	if cfg.MaxEdits > 0 {
		rp, params := forest.Plan(infoA, info, forest.ReconParams{Sigma: cfg.Depth, D: cfg.MaxEdits})
		rec, applyErr, commErr := recvAttempt(coins, rp, params)
		if commErr != nil {
			return nil, nil, commErr
		}
		if applyErr != nil {
			sendDone(ep, false, applyErr, 1)
			return nil, nil, applyErr
		}
		sendDone(ep, true, nil, 1)
		ns := netStats(ep, 1)
		return &sosr.ForestResult{Recovered: sosr.Forest{Parent: rec.Parent}, Stats: ns.Protocol}, ns, nil
	}
	var lastErr error
	for budget, k := 16, 0; budget <= acc.MaxBudget; budget, k = budget*2, k+1 {
		att := coins.Sub("forest-attempt", k)
		rp, params := forest.Plan(infoA, info, forest.ReconParams{Sigma: 1, D: 1, Budget: budget})
		rec, applyErr, commErr := recvAttempt(att, rp, params)
		if commErr != nil {
			if lastErr != nil {
				return nil, nil, fmt.Errorf("%w (last attempt: %v)", commErr, lastErr)
			}
			return nil, nil, commErr
		}
		if applyErr == nil {
			if err := ep.SendFrame("ack", []byte{1}); err != nil {
				return nil, nil, err
			}
			sendDone(ep, true, nil, k+1)
			ns := netStats(ep, k+1)
			return &sosr.ForestResult{Recovered: sosr.Forest{Parent: rec.Parent}, Stats: ns.Protocol}, ns, nil
		}
		lastErr = applyErr
		if err := ep.SendFrame("retry", []byte{0}); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("%w: %v", ErrGaveUp, lastErr)
}
