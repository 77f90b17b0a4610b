package sosrnet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/enccache"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/shardmap"
	"sosr/internal/store"
	"sosr/internal/transport"
	"sosr/internal/wire"
)

// Server hosts named datasets and serves concurrent one-way reconciliation
// sessions, with the server playing Alice (the client ends up with the
// server's data). Every connection is handled on its own goroutine and
// carries sessions one after the other for as long as the client keeps it:
// between two of them it is idle — it holds no session slot, is not counted
// as an active session, and is closed after idleConnTimeout, or at once by
// Close and Shutdown. Datasets take live updates (UpdateSets/
// UpdateSetsOfSets); sessions work off an immutable copy-on-write snapshot
// taken at session start.
//
// Alice-side encodings are memoized in a bounded, versioned cache (see
// internal/enccache), so concurrent sessions against a hot dataset with the
// same (seed, protocol, params, bounds) encode once and replay identical
// bytes — the public-coin model makes the payload a pure function of that
// key. Dataset mutations bump the version (never serving a stale payload)
// and patch the live one-round digests incrementally via
// core.IncrementalDigest instead of forcing a full re-encode.
type Server struct {
	// Logger, when non-nil, receives structured session logs: one Info
	// "session finished" record per served session (session ID, remote
	// address, dataset, protocol, byte totals, duration), one Warn
	// "handshake rejected" per dropped handshake, and an Error
	// "session panic" should a session goroutine panic. Nil discards all
	// logging. Must be safe for concurrent use (slog loggers are).
	Logger *slog.Logger
	// Obs, when set before the first session (or Registry call), is the
	// metrics registry the server instruments itself into. Nil means a
	// private registry, created lazily — read it with Registry(). Several
	// servers may share one registry; their series merge.
	Obs *obs.Registry
	// MaxBound caps every client-supplied size and difference bound before
	// any allocation happens — a hostile hello cannot make the server build
	// structures for a fabricated d or instance shape. 0 means
	// DefaultMaxBound; raise it for sessions that legitimately reconcile
	// enormous differences.
	MaxBound int
	// SessionTimeout bounds a whole session — from accept for the session
	// that opens a connection, from the arrival of its hello for every later
	// one — severing stalled or malicious connections that would otherwise
	// pin a goroutine forever. 0 means DefaultSessionTimeout; negative
	// disables the deadline.
	SessionTimeout time.Duration
	// HelloTimeout bounds the wait for the opening hello frame of a fresh
	// connection. A connection that dribbles (or never sends) its handshake
	// is severed after this long instead of holding a session slot for the
	// whole SessionTimeout — the slow-loris guard. 0 means
	// DefaultHelloTimeout; negative disables the tighter deadline (the
	// session deadline still applies). A connection waiting between two
	// sessions holds no slot and is bounded by idleConnTimeout instead.
	HelloTimeout time.Duration
	// CacheBytes bounds the Alice-side encoding cache: 0 selects
	// enccache.DefaultMaxBytes, negative disables caching entirely (every
	// session re-encodes). Set before the first session.
	CacheBytes int64
	// MaxConcurrentSessions caps sessions holding a goroutine at once
	// (0 = unlimited). A connection over the cap is answered with a ctl/error
	// carrying the "busy" code (clients see ErrBusy — retry after a backoff
	// or on another replica) and counted under
	// sosr_handshake_rejects_total{reason="busy"}. A fresh connection claims
	// its slot at accept, before the hello arrives, so dribbling handshakes
	// count toward the cap until the hello deadline clears them; a reused
	// connection claims one when its next hello has arrived and gives it
	// back when that session ends.
	MaxConcurrentSessions int
	// Trace, when set, records distributed traces: a session whose hello
	// carries a trace context always joins its client's trace (the client
	// made the sampling decision); otherwise the tracer's own SampleRate
	// decides whether to start a server-local root. Each traced session
	// gets per-stage spans (hello, estimate, encode, transfer) plus the
	// resolved bounds, byte totals, cache outcomes, and the bytes÷d̂ bound
	// ratio on its session span. A stage span is stamped with the same two
	// clock readings that sosr_stage_seconds and the session log record
	// sum, so the trace and the metrics agree; untraced sessions record the
	// stage times all the same. Nil disables tracing; the session path then
	// allocates nothing for it (all span helpers are nil-safe).
	Trace *obs.Tracer
	// AdminToken, when non-empty, gates the mutating and introspective ops
	// endpoints (/admin/*, /debug/*) behind "Authorization: Bearer <token>".
	// /metrics, /healthz, /readyz, and /datasets stay open for scrapers.
	AdminToken string

	mu       sync.Mutex
	datasets map[string]*dataset
	conns    map[net.Conn]struct{}
	idle     map[net.Conn]struct{} // the connections of conns that are between two sessions
	ln       net.Listener
	closed   bool
	wg       sync.WaitGroup
	cache    *enccache.Cache
	cacheOff bool
	store    store.Store // nil = no persistence (see persist.go)

	// obsOnce guards lazy metric registration (see metrics.go); sid numbers
	// sessions for log correlation. Neither is touched under s.mu —
	// registration takes registry locks whose collectors take s.mu.
	obsOnce sync.Once
	met     *serverMetrics
	sid     atomic.Uint64
	// notReady inverts Ready() so the zero value is ready (see persist.go).
	notReady atomic.Bool
	// liveSessions tracks sessions against MaxConcurrentSessions.
	liveSessions atomic.Int64
}

// shardState pins a hosted dataset to one shard of a partitioned logical
// dataset: its binding — position, shard count and topology epoch, what the
// store persists — and the positional map over the count
// (shardmap.Positional), whose ownership and identities are the shard's. No
// address is part of it. Immutable after hosting.
type shardState struct {
	store.ShardBinding
	m *shardmap.Map
}

// newShardState checks a shard binding and derives its ownership.
func newShardState(sb store.ShardBinding) (*shardState, error) {
	if sb.Index < 0 || sb.Index >= sb.Count {
		return nil, fmt.Errorf("sosrnet: shard index %d outside [0, %d)", sb.Index, sb.Count)
	}
	m, err := shardmap.Positional(sb.Count)
	if err != nil {
		return nil, err
	}
	return &shardState{ShardBinding: sb, m: m}, nil
}

// dataset is one hosted dataset. Its contents are copy-on-write: sessions
// snapshot them (with the version) under mu at session start, updates swap
// in a fresh value, so in-flight sessions keep a consistent view.
type dataset struct {
	k     *kindEntry
	shard *shardState // nil for unsharded datasets

	mu      sync.Mutex
	version uint64
	contents
	// live holds the incrementally maintained one-round digests for this
	// dataset, keyed by the exact encoding parameters; dataset updates patch
	// each in O(update) so the next session snapshots the new encoding
	// without a full rebuild. wanted tracks keys seen once: only a repeated
	// key is promoted to a live digest, so one-shot client seeds never pin
	// an O(|parent|) builder.
	live      map[liveKey]*core.IncrementalDigest
	liveOrder []liveKey // LRU order, oldest first
	wanted    map[liveKey]struct{}
}

// dsView is the immutable per-session snapshot of a dataset.
type dsView struct {
	name    string
	version uint64
	ds      *dataset
	contents
}

// checkRoute rejects sessions whose shard coordinates do not match the slice
// this server hosts: a sharded dataset demands the positional shard identity,
// count and topology fingerprint it was hosted with; an unsharded dataset
// demands none. The epoch is checked first and separately — a client
// holding yesterday's topology gets ErrStaleEpoch (re-resolve and retry),
// never a structural ErrMisrouted (fail over / fail loudly).
func (d *dataset) checkRoute(h *helloMsg) error {
	if d.shard == nil {
		if h.ShardCount != 0 {
			return fmt.Errorf("%w: dataset %q is not sharded (client sent shard coordinates)",
				ErrMisrouted, h.Dataset)
		}
		return nil
	}
	ss := d.shard
	if h.ShardCount == 0 {
		return fmt.Errorf("%w: dataset %q is a shard of %d (client sent no shard coordinates)",
			ErrMisrouted, h.Dataset, ss.Count)
	}
	if h.ShardEpoch != ss.Epoch {
		return fmt.Errorf("%w: dataset %q is at topology epoch %d, client at %d",
			ErrStaleEpoch, h.Dataset, ss.Epoch, h.ShardEpoch)
	}
	if h.ShardCount != ss.Count || h.ShardID != ss.m.ShardIDHash(ss.Index) {
		return fmt.Errorf("%w: dataset %q is shard %d of %d, client asked for a different slice (%d shards)",
			ErrMisrouted, h.Dataset, ss.Index, ss.Count, h.ShardCount)
	}
	if h.ShardSet != ss.m.Fingerprint() {
		return fmt.Errorf("%w: dataset %q topology fingerprint mismatch (the partitions would differ)",
			ErrMisrouted, h.Dataset)
	}
	return nil
}

// view snapshots the dataset's current contents and version.
func (d *dataset) view(name string) dsView {
	d.mu.Lock()
	defer d.mu.Unlock()
	return dsView{name: name, version: d.version, ds: d, contents: d.contents}
}

// DefaultMaxBound is the default cap on client-supplied bounds (difference
// bounds, instance shape, budgets).
const DefaultMaxBound = 1 << 20

// DefaultSessionTimeout is the default whole-session deadline.
const DefaultSessionTimeout = 5 * time.Minute

// DefaultHelloTimeout is the default deadline for the opening hello frame.
const DefaultHelloTimeout = 10 * time.Second

// idleConnTimeout is how long a connection may wait between two sessions
// before the server closes it. Clients notice when they next take the
// connection and dial again.
const idleConnTimeout = 90 * time.Second

// DefaultBoundEnvelope is the default bound ratio past which a session is
// flagged as blowing its communication envelope. The ratio divides the
// server's payload by what the paper lets it scale with — d̂ differing keys
// times the table-cell bytes of one key in this session's plan (core.CellBytes;
// 20 for a plain set element) — so it is the same small number for every
// family: the cells-per-key slack of an IBLT, 2 to 5 at the benchmark's
// shapes, up to ~20 when d̂ = 1 meets the 16-cell table floor, times up to 3
// when a replicated session needs every attempt. 32 clears all of that and
// still catches a payload that grows with the hosted data: at d̂ = 32 a
// table sized by s is flagged from s ≈ 250 up.
const DefaultBoundEnvelope = 32

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		datasets: make(map[string]*dataset),
		conns:    make(map[net.Conn]struct{}),
		idle:     make(map[net.Conn]struct{}),
	}
}

func (s *Server) maxBound() int {
	if s.MaxBound > 0 {
		return s.MaxBound
	}
	return DefaultMaxBound
}

// discardLogger swallows records when no Logger is configured, keeping every
// log call site unconditional.
var discardLogger = slog.New(slog.DiscardHandler)

func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return discardLogger
}

// Host hosts the dataset rec describes — its Name, its Kind and that kind's
// field group; Version, Shard and Digests are not read — and is the one way in:
// the typed Host* wrappers, /admin/host and sosrd's data files all land here,
// and the kind table takes it from there. The contents are canonicalised (rec's
// field group is rewritten in place) and validated. With a topology, rec is the
// full logical dataset and the server keeps the slice shard index owns:
// passing the full contents and passing the owned slice are equivalent —
// ownership filtering is idempotent — and every replica of shard index hosts
// the identical slice. Sessions must then present matching shard coordinates in
// their hello, so a fan-out client dialing the wrong instance is rejected at
// the handshake, and a live update applies only the owned slice of a broadcast
// mutation. A kind the table cannot partition is refused as ErrUnsupported
// rather than hosted whole on every shard. A nil topology hosts the whole
// dataset, unsharded.
func (s *Server) Host(rec *store.Record, topo *shardmap.Topology, index int) error {
	k := kindOf(Kind(rec.Kind))
	if k == nil {
		return fmt.Errorf("%w: kind %q", ErrUnsupported, rec.Kind)
	}
	if rec.Name == "" {
		return errors.New("sosrnet: empty dataset name")
	}
	var ss *shardState
	if topo != nil {
		// canon is where ownership is applied: a kind without one has no rule
		// for which shard holds what.
		if k.canon == nil {
			return fmt.Errorf("%w: a %s dataset cannot be sharded", ErrUnsupported, k.kind)
		}
		var err error
		if ss, err = newShardState(store.ShardBinding{Index: index, Count: topo.NumShards(), Epoch: topo.Epoch()}); err != nil {
			return err
		}
	}
	if k.canon != nil {
		if err := k.canon(rec, ss); err != nil {
			return err
		}
	}
	data, err := k.decode(rec)
	if err != nil {
		return err
	}
	ds := &dataset{k: k, shard: ss, contents: data}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[rec.Name]; dup {
		return fmt.Errorf("sosrnet: dataset %q already hosted", rec.Name)
	}
	// Snapshot-before-host: the dataset is acknowledged only once its initial
	// snapshot is durable, so a crash right after hosting cannot lose it.
	if s.store != nil {
		if err := s.store.SaveSnapshot(recordLocked(rec.Name, ds)); err != nil {
			return fmt.Errorf("sosrnet: persisting dataset %q: %w", rec.Name, err)
		}
	}
	s.datasets[rec.Name] = ds
	return nil
}

// HostSets hosts a set (any order, duplicates ignored). Elements must fit
// the 2^60 universe so every protocol variant can serve it.
func (s *Server) HostSets(name string, elems []uint64) error {
	return s.Host(&store.Record{Name: name, Kind: store.KindSet, Elems: elems}, nil, 0)
}

// HostMultiset hosts a multiset (slice with repeats). Elements must be
// < 2^48 with per-element multiplicity < 2^12 (the §3.4 packing).
func (s *Server) HostMultiset(name string, elems []uint64) error {
	return s.Host(&store.Record{Name: name, Kind: store.KindMultiset, Elems: elems}, nil, 0)
}

// HostSetsOfSets hosts a parent set of child sets. Child sets may be passed
// unsorted; each is stored in canonical order.
func (s *Server) HostSetsOfSets(name string, parent [][]uint64) error {
	return s.Host(&store.Record{Name: name, Kind: store.KindSetsOfSets, Parents: parent}, nil, 0)
}

// HostGraph hosts an undirected simple graph.
func (s *Server) HostGraph(name string, g sosr.Graph) error {
	return s.Host(&store.Record{Name: name, Kind: store.KindGraph, N: g.N, Edges: g.Edges}, nil, 0)
}

// HostForest hosts a rooted forest.
func (s *Server) HostForest(name string, f sosr.Forest) error {
	return s.Host(&store.Record{Name: name, Kind: store.KindForest, Parent: append([]int32(nil), f.Parent...)}, nil, 0)
}

// byName returns the hosted dataset of that name, whatever its kind.
func (s *Server) byName(name string) (*dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return ds, nil
}

// lookup returns the hosted dataset of that name and kind.
func (s *Server) lookup(name string, kind Kind) (*dataset, error) {
	ds, err := s.byName(name)
	if err == nil && ds.k.kind != kind {
		return nil, fmt.Errorf("%w: %q is %s, not %s", ErrUnknownDataset, name, ds.k.kind, kind)
	}
	return ds, err
}

// Serve accepts sessions on ln until Close or Shutdown. It returns nil after
// a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("sosrnet: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			defer func() {
				if r := recover(); r != nil {
					s.logger().Error("session panic",
						"remote", conn.RemoteAddr().String(), "panic", fmt.Sprint(r))
				}
			}()
			s.handle(conn)
		}()
	}
}

// Addr returns the listening address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, severs active sessions and idle connections, and
// waits for their goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Shutdown stops accepting, closes idle connections at once, and waits for
// in-flight sessions to finish (their connections close when they do); when
// ctx expires first, remaining sessions are severed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.idle {
		c.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// setIdle moves a connection into or out of the idle set. It refuses to idle
// one once the server is closing: the caller closes it instead.
func (s *Server) setIdle(conn net.Conn, idle bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !idle {
		delete(s.idle, conn)
		return true
	}
	if s.closed {
		return false
	}
	s.idle[conn] = struct{}{}
	return true
}

// reject counts and logs a session dropped before serving. Like every log
// site on the session path, it builds its record only for a handler that
// wants it.
func (s *Server) reject(sid uint64, remote, reason string, err error, tid obs.TraceID) {
	s.metrics().rejects.With(reason).Inc()
	lg := s.logger()
	if !lg.Enabled(context.Background(), slog.LevelWarn) {
		return
	}
	args := []any{"sid", sid, "remote", remote, "reason", reason, "err", err.Error()}
	if tid != 0 {
		args = append(args, "trace_id", tid.String())
	}
	lg.Warn("handshake rejected", args...)
}

// sessTrace is what a session's plan records as it serves: the resolved
// difference bounds and the encode-cache outcomes. It holds no span — a
// stage's span and timing come from sessionRecord.begin. The bounds and
// tallies are kept on every session: they feed sosr_bound_ratio, traced or
// not.
type sessTrace struct {
	d    int // resolved difference bound
	dHat int // resolved d̂ (== d for set/graph/forest kinds)
	// The bound audit's denominator: how many differing keys the session's
	// bound allows for, and the table-cell bytes one of them costs under the
	// session's plan. For a sets-of-sets session that is d̂ and
	// core.CellBytes; a graph or forest session reconciles signature sets and
	// audits against that inner shape.
	keys      int
	cellBytes int
	hits      int // encode-cache hits this session
	miss      int // encode-cache misses (payload builds)
}

// audit records what the server's payload may scale with. Flows that resolve
// their bound more than once (doubling, estimated d) re-record it; the last
// attempt's stands, and earlier, smaller attempts add at most its size again.
func (t *sessTrace) audit(keys, cellBytes int) { t.keys, t.cellBytes = keys, cellBytes }

// boundRatio is the server's payload per unit of the session's bound, 0 when
// the session never resolved one.
func (t *sessTrace) boundRatio(aliceBytes int) float64 {
	if t.keys <= 0 || t.cellBytes <= 0 || aliceBytes <= 0 {
		return 0
	}
	return float64(aliceBytes) / (float64(t.keys) * float64(t.cellBytes))
}

// bounds records the session's resolved (d, d̂).
func (t *sessTrace) bounds(d, dHat int) { t.d, t.dHat = d, dHat }

// cacheEvent tallies one encode-cache consultation.
func (t *sessTrace) cacheEvent(hit bool) {
	if hit {
		t.hits++
	} else {
		t.miss++
	}
}

// srvConn is one accepted connection: Alice's endpoint on it and the ordinal
// of the session it is carrying.
type srvConn struct {
	conn   net.Conn
	ep     *wire.Endpoint
	remote string
	seq    int // 1 for the session that opened the connection
	// The connection's control plane: the scratch its accepts are encoded in,
	// and the dataset name of its last hello — a client that keeps a connection
	// mostly asks for the same dataset again, and its next hello then parses
	// without allocating the name anew.
	ctl     []byte
	dataset string
	// rec is the record of the session the connection is carrying. Its
	// sessions run one after the other, so they share it: each starts from a
	// zero record, and account clears it when it closes the books, so an idle
	// connection pins no dataset snapshot, plan or span.
	rec sessionRecord
}

// sessionRecord is what one session leaves behind, beyond the connection it
// ran on and the endpoint's counters. account derives the metrics, the span
// attributes and the log record from it, so the three cannot disagree. Every
// kind's plan is a field of it, so resolving one allocates nothing.
type sessionRecord struct {
	sid uint64
	// start is the accept for the session that opened the connection and the
	// arrival of the hello for every later one.
	start time.Time
	h     helloMsg
	sp    *obs.Span // session span; nil when untraced
	xfer  *obs.Span // transfer span, parent of the estimate and encode spans
	tr    sessTrace
	// took is the session's total time in each stage; a stage that never
	// began reads 0.
	took [len(stageNames)]time.Duration
	// What dispatch hands the session's plan: Alice's endpoint, the dataset
	// snapshot and the public coins of the hello's seed.
	ep    *wire.Endpoint
	view  dsView
	coins hashing.Coins
	// proto is the protocol label of the session's metrics and log record,
	// plan what the kind's table entry resolved the hello to (nil when it
	// could not) and acc the answer the client was sent. done is the client's
	// closing report once closed says it arrived.
	proto  string
	plan   alicePlan
	acc    acceptMsg
	done   doneMsg
	closed bool
	err    error
	// The plans plan points at: the one of the session's kind is set.
	set    setPlan
	sos    sosPlan
	graph  graphPlan
	forest forestPlan
}

// handle serves one connection: sessions one after the other, each admitted,
// handshaken, dispatched and accounted on its own, until one of them fails,
// the client leaves, the idle timer fires or the server closes.
func (s *Server) handle(conn net.Conn) {
	c := &srvConn{conn: conn, remote: conn.RemoteAddr().String(), ep: wire.NewEndpoint(conn, transport.Alice)}
	for c.seq = 1; s.session(c); c.seq++ {
	}
}

// session runs one session on c and reports whether the connection may carry
// another.
func (s *Server) session(c *srvConn) bool {
	var hello []byte
	if c.seq > 1 {
		var ok bool
		if hello, ok = s.awaitHello(c); !ok {
			return false
		}
	}
	rec := &c.rec
	*rec = sessionRecord{sid: s.sid.Add(1), start: time.Now(), proto: "unknown"}
	m := s.metrics()
	m.active.Add(1)
	defer m.active.Add(-1)
	hello, slot, ok := s.admit(c, rec, hello)
	if slot {
		defer s.liveSessions.Add(-1)
	}
	if !ok {
		return false
	}
	ds, ok := s.handshake(c, rec, hello)
	if !ok {
		return false
	}
	s.dispatch(c, rec, ds)
	clean := rec.err == nil && rec.closed
	s.account(c, rec)
	// The session's books are closed either way: its frame buffers go back to
	// the pool, and a next session starts its byte counts from zero.
	c.ep.EndSession()
	return clean && c.ep.Err() == nil
}

// awaitHello parks a connection between two sessions until the next hello
// arrives. While it waits the connection is idle: it holds no session slot,
// it is not an active session, and Close and Shutdown close it at once. A
// connection that ends here without a byte of a next session — the client
// closed it, the idle timer fired, the server is closing — just ends; only
// bytes that do not make a hello count as a rejected handshake.
func (s *Server) awaitHello(c *srvConn) ([]byte, bool) {
	if !s.setIdle(c.conn, true) {
		return nil, false
	}
	_ = c.conn.SetDeadline(time.Now().Add(idleConnTimeout))
	hello, err := c.ep.RecvExpect(lblHello)
	s.setIdle(c.conn, false)
	if err != nil {
		if c.ep.BytesRead() > 0 {
			s.reject(s.sid.Add(1), c.remote, helloFailure(err), err, 0)
		}
		return nil, false
	}
	return hello, true
}

// helloFailure names the reject reason for a hello that never arrived whole.
func helloFailure(err error) string {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return rejectHelloTimeout
	}
	return rejectHelloIO
}

// admit arms the session's deadlines, claims its slot and, on a fresh
// connection, waits for the opening hello (a reused connection hands in the
// hello that ended its idle wait). slot reports whether a
// MaxConcurrentSessions slot was claimed, which the caller gives back.
func (s *Server) admit(c *srvConn, rec *sessionRecord, hello []byte) (_ []byte, slot, ok bool) {
	// A negative timeout is none, and no deadline clears what the idle wait set.
	timeout := cmp.Or(s.SessionTimeout, DefaultSessionTimeout)
	deadline := time.Time{}
	if timeout > 0 {
		deadline = rec.start.Add(timeout)
	}
	_ = c.conn.SetDeadline(deadline)
	// Claim a session slot before any further read: a server at its cap
	// answers immediately with a distinct busy error instead of queueing the
	// client behind sessions it cannot serve.
	if lim := s.MaxConcurrentSessions; lim > 0 {
		if s.liveSessions.Add(1) > int64(lim) {
			s.liveSessions.Add(-1)
			err := fmt.Errorf("%w: at the cap of %d concurrent sessions", ErrBusy, lim)
			sendErrorFrame(c.ep, err)
			s.reject(rec.sid, c.remote, rejectBusy, err, 0)
			return nil, false, false
		}
		slot = true
	}
	if c.seq > 1 {
		return hello, slot, true
	}
	// The hello gets a much tighter read deadline than the session: a
	// slow-loris connection that never completes its handshake must release
	// its session slot in seconds, not minutes.
	helloTimeout := s.HelloTimeout
	if helloTimeout == 0 {
		helloTimeout = DefaultHelloTimeout
	}
	tighter := helloTimeout > 0 && (timeout <= 0 || helloTimeout < timeout)
	if tighter {
		_ = c.conn.SetReadDeadline(rec.start.Add(helloTimeout))
	}
	hello, err := c.ep.RecvExpect(lblHello)
	if err != nil {
		s.reject(rec.sid, c.remote, helloFailure(err), err, 0)
		return nil, slot, false
	}
	if tighter {
		_ = c.conn.SetReadDeadline(deadline)
	}
	return hello, slot, true
}

// handshake parses and validates the hello into rec.h and resolves the
// dataset it names. A hello that fails any check is answered with an error
// frame, counted as a reject, and ends the connection.
func (s *Server) handshake(c *srvConn, rec *sessionRecord, hello []byte) (*dataset, bool) {
	h := &rec.h
	refuse := func(reason string, err error) (*dataset, bool) {
		sendErrorFrame(c.ep, err)
		s.reject(rec.sid, c.remote, reason, err, obs.TraceID(h.TraceID))
		return nil, false
	}
	// The version is read ahead of the rest: what else a hello of another
	// revision holds is not this parser's to judge.
	switch v, declared := helloVersion(hello); {
	case !declared:
		return refuse(rejectMalformed, errors.New("malformed hello: no protocol version leads it"))
	case v != protoVersion:
		return refuse(rejectVersion, fmt.Errorf("protocol version %d unsupported (want %d)", v, protoVersion))
	}
	h.Dataset = c.dataset
	if err := parseCtl(helloFields, hello, h); err != nil {
		*h = helloMsg{} // whatever a torn hello filled in is not to be trusted
		return refuse(rejectMalformed, fmt.Errorf("malformed hello: %v", err))
	}
	c.dataset = h.Dataset
	if err := checkHello(h, s.maxBound()); err != nil {
		return refuse(rejectBound, err)
	}
	ds, err := s.lookup(h.Dataset, h.Kind)
	if err != nil {
		return refuse(rejectUnknownDataset, err)
	}
	if err := ds.checkRoute(h); err != nil {
		if errors.Is(err, ErrStaleEpoch) {
			return refuse(rejectStaleEpoch, err)
		}
		return refuse(rejectMisroute, err)
	}
	s.metrics().started.With(string(h.Kind)).Inc()
	// Trace context: a hello carrying trace IDs joins the client's trace
	// unconditionally (the client sampled it); otherwise the server's own
	// sample rate decides. The span stays nil on untraced sessions — every
	// span helper is nil-safe and allocation-free then.
	if h.TraceID != 0 {
		rec.sp = s.Trace.Join(obs.TraceID(h.TraceID), obs.SpanID(h.SpanID), "server/session")
	} else {
		rec.sp = s.Trace.StartRoot("server/session")
	}
	rec.begin(stageHello).end(nil)
	return ds, true
}

// stageRun is one run of a session stage, from sessionRecord.begin to end.
type stageRun struct {
	rec   *sessionRecord
	stage int
	t0    time.Time
	sp    *obs.Span // the stage's span; nil when the session is untraced
}

// begin opens a run of stage. begin and end are the only places a session
// stage reads the clock, and each reading serves both the stage's span and
// its total in rec.took, so the trace and sosr_stage_seconds cannot disagree.
// hello runs from rec.start; hello and transfer hang under the session span,
// estimate and encode under the transfer span.
func (rec *sessionRecord) begin(stage int) stageRun {
	t0, parent := rec.start, rec.sp
	if stage != stageHello {
		t0 = time.Now()
	}
	if stage == stageEstimate || stage == stageEncode {
		parent = rec.xfer
	}
	return stageRun{rec, stage, t0, parent.ChildAt(stageNames[stage], t0)}
}

// end closes the run at one clock reading: the span ends there, and the run
// adds its length to the session's total for the stage.
func (r stageRun) end(err error) {
	t1 := time.Now()
	r.rec.took[r.stage] += t1.Sub(r.t0)
	r.sp.Fail(err)
	r.sp.FinishAt(t1)
}

// dispatch resolves the session's plan through its kind's table entry, answers
// the hello and serves the protocol frames, leaving the outcome in rec.
func (s *Server) dispatch(c *srvConn, rec *sessionRecord, ds *dataset) {
	h, ep := &rec.h, c.ep
	rec.ep, rec.view, rec.coins = ep, ds.view(h.Dataset), hashing.NewCoins(h.Seed)
	xfer := rec.begin(stageTransfer)
	rec.xfer = xfer.sp
	rec.acc = acceptMsg{V: protoVersion, Kind: h.Kind, D: h.D}
	if rec.plan, rec.err = ds.k.plan(s, rec, &rec.acc); rec.err != nil {
		sendErrorFrame(ep, rec.err)
	} else {
		c.ctl = appendCtl(c.ctl[:0], acceptFields, &rec.acc)
		if rec.err = ep.SendFrame(lblAccept, c.ctl); rec.err == nil {
			rec.err = rec.plan.serve(s)
		}
	}
	if errors.Is(rec.err, core.ErrInvalidInstance) {
		s.reject(rec.sid, c.remote, rejectInstance, rec.err, rec.traceID())
	}
	xfer.end(rec.err)
}

// traceID is the trace the session belongs to: its span's, or the one the
// hello named when this server keeps no spans.
func (rec *sessionRecord) traceID() obs.TraceID {
	if rec.sp != nil {
		return rec.sp.TraceID()
	}
	return obs.TraceID(rec.h.TraceID)
}

// account closes a served session's books — metrics, span attributes and the
// log record (report) — and then clears its record, which the connection
// keeps for its next session: an idle connection holds no dataset snapshot,
// plan or span.
func (s *Server) account(c *srvConn, rec *sessionRecord) {
	s.report(c, rec)
	*rec = sessionRecord{}
}

// report derives a served session's metrics, span attributes and log record,
// all read off the one sessionRecord and the endpoint's counters.
func (s *Server) report(c *srvConn, rec *sessionRecord) {
	m, h, tr, sp := s.metrics(), &rec.h, &rec.tr, rec.sp
	dur := time.Since(rec.start)
	// Observed before the session span finishes: a reader that has the
	// session's trace also has its stage times.
	for st, d := range rec.took[:stageDone] {
		if d > 0 {
			m.stages[st].Observe(d.Seconds())
		}
	}
	m.stages[stageDone].Observe(dur.Seconds())
	st := c.ep.Stats()
	in, out := c.ep.BytesRead(), c.ep.BytesWritten()
	m.wire.With(rec.proto, "in").Add(uint64(in))
	m.wire.With(rec.proto, "out").Add(uint64(out))
	m.protoB.With(rec.proto, "alice").Add(uint64(st.AliceBytes))
	m.protoB.With(rec.proto, "bob").Add(uint64(st.BobBytes))
	status := "ok"
	switch {
	case rec.err != nil:
		status = "error"
	case rec.closed && !rec.done.OK:
		status = "client_failed"
	}
	m.sessions.With(string(h.Kind), rec.proto, status).Inc()
	// Bound-ratio audit: the paper promises payloads of O(d̂) keys whatever
	// n is; the ratio of Alice's bytes to d̂ keys' worth of table cells makes
	// that checkable on every session, traced or not.
	ratio := tr.boundRatio(st.AliceBytes)
	exceeded := false
	if ratio > 0 {
		m.boundRatio.Observe(ratio)
		exceeded = ratio > DefaultBoundEnvelope
	}
	tid := rec.traceID()
	if sp != nil {
		sp.SetStr("dataset", h.Dataset)
		sp.SetStr("kind", string(h.Kind))
		sp.SetStr("proto", rec.proto)
		sp.SetStr("status", status)
		sp.SetStr("remote", c.remote)
		sp.SetInt("sid", int64(rec.sid))
		sp.SetInt("conn_seq", int64(c.seq))
		sp.SetInt("d", int64(tr.d))
		sp.SetInt("dhat", int64(tr.dHat))
		sp.SetInt("proto_bytes", int64(st.TotalBytes))
		sp.SetInt("wire_in", in)
		sp.SetInt("wire_out", out)
		sp.SetInt("cache_hits", int64(tr.hits))
		sp.SetInt("cache_misses", int64(tr.miss))
		if ratio > 0 {
			sp.SetFloat("bound_ratio", ratio)
			sp.SetBool("bound_exceeded", exceeded)
		}
		sp.Fail(rec.err)
		sp.Finish()
	}
	// Log records are built only for a handler that wants them: boxing some
	// thirty values per session for a discarding logger was a tenth of a hot
	// session's allocations.
	lg := s.logger()
	if exceeded && lg.Enabled(context.Background(), slog.LevelWarn) {
		args := []any{
			"sid", rec.sid, "dataset", h.Dataset, "proto", rec.proto,
			"ratio", ratio, "keys", tr.keys, "cell_bytes", tr.cellBytes, "alice_bytes", st.AliceBytes,
		}
		if tid != 0 {
			args = append(args, "trace_id", tid.String())
		}
		lg.Warn("session exceeded communication envelope", args...)
	}
	if !lg.Enabled(context.Background(), slog.LevelInfo) {
		return
	}
	args := []any{
		"sid", rec.sid, "remote", c.remote, "conn_seq", c.seq,
		"dataset", h.Dataset, "kind", string(h.Kind), "proto", rec.proto, "status", status,
		"rounds", st.Rounds, "proto_bytes", st.TotalBytes,
		"wire_in", in, "wire_out", out,
		"dur", dur.Round(time.Microsecond).String(),
	}
	for st, d := range rec.took[:stageDone] {
		if d > 0 {
			args = append(args, stageNames[st], d.Round(time.Microsecond).String())
		}
	}
	if tid != 0 {
		args = append(args, "trace_id", tid.String(), "span_id", sp.ID().String())
	}
	if rec.plan != nil {
		args = append(args, "detail", rec.plan.detail())
	}
	if rec.err != nil {
		args = append(args, "err", rec.err.Error())
	}
	if done := &rec.done; rec.closed {
		args = append(args,
			"client_rounds", done.Rounds, "client_bytes", done.Bytes,
			"client_msgs", done.Messages, "attempts", done.Attempts)
		if !done.OK {
			args = append(args, "client_err", done.Error)
		}
	}
	lg.Info("session finished", args...)
}

// close takes the client's closing report from an already-received done
// payload.
func (rec *sessionRecord) close(payload []byte) error {
	if err := parseCtl(doneFields, payload, &rec.done); err != nil {
		return fmt.Errorf("sosrnet: malformed done frame: %v", err)
	}
	rec.closed = true
	return nil
}
