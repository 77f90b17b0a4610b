package sosrnet

import (
	"context"
	"encoding/json"
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
	"sosr/internal/forest"
	"sosr/internal/graph"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
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
	// MaxFrame bounds accepted frame payloads (0 = wire.DefaultMaxPayload).
	MaxFrame int
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
	// session re-encodes, the pre-PR-4 behavior). Set before the first
	// session.
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
	// ratio on its session span. Nil disables tracing; the session path
	// then allocates nothing for it (all span helpers are nil-safe).
	Trace *obs.Tracer
	// AdminToken, when non-empty, gates the mutating and introspective ops
	// endpoints (/admin/*, /debug/*) behind "Authorization: Bearer <token>".
	// /metrics, /healthz, /readyz, and /datasets stay open for scrapers.
	AdminToken string
	// BoundEnvelope flags sessions whose bound ratio — the server's payload
	// bytes ÷ (differing keys its bound allows × table-cell bytes of one such
	// key) — blows past it: the session span gains bound_exceeded=true and a
	// Warn log is emitted (the ratio itself always feeds sosr_bound_ratio).
	// 0 means DefaultBoundEnvelope; negative disables flagging.
	BoundEnvelope float64

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
// dataset: the replicated topology every party shares and this server's shard
// index in it. Immutable after hosting.
type shardState struct {
	topo  *shardmap.Topology
	index int
}

// owns reports whether this shard owns a top-level element key.
func (ss *shardState) owns(x uint64) bool { return ss.topo.Owner(x) == ss.index }

// dataset is one hosted dataset. The data fields are copy-on-write: sessions
// snapshot them (with the version) under mu at session start, updates swap
// in fresh slices, so in-flight sessions keep a consistent view.
type dataset struct {
	kind  Kind
	shard *shardState // nil for unsharded datasets

	mu      sync.Mutex
	version uint64
	set     []uint64   // KindSet: canonical; KindMultiset: canonical packed form
	sos     [][]uint64 // KindSetsOfSets: canonical child sets
	g       *graph.Graph
	f       *forest.Forest
	fi      forest.SideInfo
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
	set     []uint64
	sos     [][]uint64
	g       *graph.Graph
	f       *forest.Forest
	fi      forest.SideInfo
}

// checkRoute rejects sessions whose shard coordinates do not match the slice
// this server hosts: a sharded dataset demands the exact canonical shard
// identity, count, and topology fingerprint it was hosted with; an unsharded
// dataset demands none. The epoch is checked first and separately — a client
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
	topo := d.shard.topo
	if h.ShardCount == 0 {
		return fmt.Errorf("%w: dataset %q is a shard of %d (client sent no shard coordinates)",
			ErrMisrouted, h.Dataset, topo.NumShards())
	}
	if h.ShardEpoch != topo.Epoch() {
		return fmt.Errorf("%w: dataset %q is at topology epoch %d, client at %d",
			ErrStaleEpoch, h.Dataset, topo.Epoch(), h.ShardEpoch)
	}
	if h.ShardCount != topo.NumShards() || h.ShardID != topo.ShardIDHash(d.shard.index) {
		return fmt.Errorf("%w: dataset %q is shard %q (%d shards), client asked for a different slice (%d shards)",
			ErrMisrouted, h.Dataset, topo.ShardID(d.shard.index), topo.NumShards(), h.ShardCount)
	}
	if h.ShardSet != topo.Fingerprint() {
		return fmt.Errorf("%w: dataset %q topology fingerprint mismatch (the address structures differ, so the partitions would too)",
			ErrMisrouted, h.Dataset)
	}
	return nil
}

// view snapshots the dataset's current contents and version.
func (d *dataset) view(name string) dsView {
	d.mu.Lock()
	defer d.mu.Unlock()
	return dsView{
		name: name, version: d.version, ds: d,
		set: d.set, sos: d.sos, g: d.g, f: d.f, fi: d.fi,
	}
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

// maxHelloReplicas caps the client-requested replication factor (each
// replica is one server-built payload).
const maxHelloReplicas = 64

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

// checkHello rejects hellos whose numeric parameters are negative or exceed
// the server's bound, before any of them can size an allocation.
func (s *Server) checkHello(h *helloMsg) error {
	bound := s.maxBound()
	for _, f := range []struct {
		name string
		v    int
	}{
		{"d", h.D}, {"dhat", h.DHat}, {"s", h.S}, {"h", h.H},
		{"cs", h.CS}, {"ch", h.CH}, {"toph", h.TopH}, {"m", h.M},
		{"n", h.N}, {"sigbudget", h.SigBudget}, {"maxsig", h.MaxSig},
		{"sigma", h.Sigma}, {"budget", h.Budget}, {"maxbudget", h.MaxBudget},
		{"depth", h.Depth}, {"maxchild", h.MaxChild},
		{"shardcnt", h.ShardCount},
	} {
		if f.v < 0 || f.v > bound {
			return fmt.Errorf("%w: hello field %s=%d outside [0, %d]", ErrUnsupported, f.name, f.v, bound)
		}
	}
	if h.Replicas < 0 || h.Replicas > maxHelloReplicas {
		return fmt.Errorf("%w: replicas=%d outside [0, %d]", ErrUnsupported, h.Replicas, maxHelloReplicas)
	}
	if h.ShardCount == 0 && (h.ShardID != 0 || h.ShardEpoch != 0) {
		return fmt.Errorf("%w: shard identity without a shard count", ErrUnsupported)
	}
	return nil
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

func (s *Server) host(name string, ds *dataset) error {
	if name == "" {
		return errors.New("sosrnet: empty dataset name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[name]; dup {
		return fmt.Errorf("sosrnet: dataset %q already hosted", name)
	}
	// Snapshot-before-host: the dataset is acknowledged only once its initial
	// snapshot is durable, so a crash right after Host* cannot lose it.
	if s.store != nil {
		if err := s.store.SaveSnapshot(recordLocked(name, ds)); err != nil {
			return fmt.Errorf("sosrnet: persisting dataset %q: %w", name, err)
		}
	}
	s.datasets[name] = ds
	return nil
}

// HostSets hosts a set (any order, duplicates ignored). Elements must fit
// the 2^60 universe so every protocol variant can serve it.
func (s *Server) HostSets(name string, elems []uint64) error {
	canon := setutil.Canonical(elems)
	if err := setrecon.CheckRange(canon); err != nil {
		return err
	}
	return s.host(name, &dataset{kind: KindSet, set: canon})
}

// HostMultiset hosts a multiset (slice with repeats). Elements must be
// < 2^48 with per-element multiplicity < 2^12 (the §3.4 packing).
func (s *Server) HostMultiset(name string, elems []uint64) error {
	packed, err := setrecon.MultisetToSet(elems)
	if err != nil {
		return err
	}
	return s.host(name, &dataset{kind: KindMultiset, set: packed})
}

// HostSetsOfSets hosts a parent set of child sets. Child sets may be passed
// unsorted; each is stored in canonical order.
func (s *Server) HostSetsOfSets(name string, parent [][]uint64) error {
	return s.host(name, &dataset{kind: KindSetsOfSets, sos: setutil.CanonicalSets(parent)})
}

// checkShard validates a shard-hosting request.
func checkShard(topo *shardmap.Topology, index int) (*shardState, error) {
	if topo == nil {
		return nil, errors.New("sosrnet: nil topology")
	}
	if index < 0 || index >= topo.NumShards() {
		return nil, fmt.Errorf("sosrnet: shard index %d outside [0, %d)", index, topo.NumShards())
	}
	return &shardState{topo: topo, index: index}, nil
}

// HostSetsShard hosts shard index's slice of a logical set dataset: the
// elements of elems that the topology assigns to this index (passing the
// full logical set and the owned slice are equivalent — ownership filtering
// is idempotent). Every replica of shard index hosts the identical slice.
// Sessions must present matching shard coordinates in their hello, so a
// fan-out client dialing the wrong instance is rejected at the handshake, and
// live UpdateSets calls apply only the owned slice of a broadcast mutation.
func (s *Server) HostSetsShard(name string, elems []uint64, topo *shardmap.Topology, index int) error {
	ss, err := checkShard(topo, index)
	if err != nil {
		return err
	}
	canon := setutil.Canonical(topo.OwnedElems(index, elems))
	if err := setrecon.CheckRange(canon); err != nil {
		return err
	}
	return s.host(name, &dataset{kind: KindSet, set: canon, shard: ss})
}

// HostMultisetShard hosts shard index's slice of a logical multiset dataset.
// Ownership follows the element value, so every occurrence of one element
// lands on the same shard and the §3.4 packing stays shard-local.
func (s *Server) HostMultisetShard(name string, elems []uint64, topo *shardmap.Topology, index int) error {
	ss, err := checkShard(topo, index)
	if err != nil {
		return err
	}
	packed, err := setrecon.MultisetToSet(topo.OwnedElems(index, elems))
	if err != nil {
		return err
	}
	return s.host(name, &dataset{kind: KindMultiset, set: packed, shard: ss})
}

// HostSetsOfSetsShard hosts shard index's slice of a logical sets-of-sets
// dataset: the child sets whose canonical identity hash the topology assigns
// to this index. Both parties derive the same owner for the same child set
// (shardmap.ChildKey is a protocol constant), so each shard pair reconciles
// an exact partition of the parent-level difference.
func (s *Server) HostSetsOfSetsShard(name string, parent [][]uint64, topo *shardmap.Topology, index int) error {
	ss, err := checkShard(topo, index)
	if err != nil {
		return err
	}
	// Ownership is decided on canonical children; the owned ones are then
	// packed on their own, so the shard does not pin the whole parent's arena.
	owned := setutil.CanonicalSets(topo.OwnedSets(index, setutil.CanonicalSets(parent)))
	return s.host(name, &dataset{kind: KindSetsOfSets, sos: owned, shard: ss})
}

// HostGraph hosts an undirected simple graph.
func (s *Server) HostGraph(name string, g sosr.Graph) error {
	return s.host(name, &dataset{kind: KindGraph, g: toGraph(g)})
}

// HostForest hosts a rooted forest.
func (s *Server) HostForest(name string, f sosr.Forest) error {
	inner := toForest(f)
	if err := inner.Validate(); err != nil {
		return err
	}
	return s.host(name, &dataset{kind: KindForest, f: inner, fi: forest.Measure(inner)})
}

func (s *Server) lookup(name string, kind Kind) (*dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	if ds.kind != kind {
		return nil, fmt.Errorf("%w: %q is %s, not %s", ErrUnknownDataset, name, ds.kind, kind)
	}
	return ds, nil
}

// ListenAndServe listens on addr ("host:port") and serves until Close or
// Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
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

func (s *Server) boundEnvelope() float64 {
	if s.BoundEnvelope != 0 {
		return s.BoundEnvelope
	}
	return DefaultBoundEnvelope
}

// sessTrace carries one session's tracing state down the serve paths: the
// session span, the transfer-stage span the per-stage children hang off,
// the resolved difference bounds, and the encode-cache outcomes. A nil
// *sessTrace (or one holding nil spans) is fully inert, so untraced
// sessions pay only nil checks.
type sessTrace struct {
	sp    *obs.Span // session span (root or joined)
	stage *obs.Span // "transfer" span, parent of estimate/encode children
	d     int       // resolved difference bound
	dHat  int       // resolved d̂ (== d for set/graph/forest kinds)
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
func (t *sessTrace) audit(keys, cellBytes int) {
	if t != nil {
		t.keys, t.cellBytes = keys, cellBytes
	}
}

// boundRatio is the server's payload per unit of the session's bound, 0 when
// the session never resolved one.
func (t *sessTrace) boundRatio(aliceBytes int) float64 {
	if t.keys <= 0 || t.cellBytes <= 0 || aliceBytes <= 0 {
		return 0
	}
	return float64(aliceBytes) / (float64(t.keys) * float64(t.cellBytes))
}

// child opens a stage span under the transfer span.
func (t *sessTrace) child(name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.stage.Child(name)
}

// bounds records the session's resolved (d, d̂).
func (t *sessTrace) bounds(d, dHat int) {
	if t != nil {
		t.d, t.dHat = d, dHat
	}
}

// cacheEvent tallies one encode-cache consultation.
func (t *sessTrace) cacheEvent(hit bool) {
	if t == nil {
		return
	}
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
}

// sessionRecord is what one session leaves behind, beyond the connection it
// ran on and the endpoint's counters. account derives the metrics, the span
// attributes and the log record from it, so the three cannot disagree.
type sessionRecord struct {
	sid uint64
	// start is the accept for the session that opened the connection and the
	// arrival of the hello for every later one.
	start  time.Time
	h      helloMsg
	sp     *obs.Span // session span; nil when untraced
	tr     sessTrace
	proto  string
	detail string
	done   *doneMsg
	err    error
}

// handle serves one connection: sessions one after the other, each admitted,
// handshaken, dispatched and accounted on its own, until one of them fails,
// the client leaves, the idle timer fires or the server closes.
func (s *Server) handle(conn net.Conn) {
	c := &srvConn{conn: conn, remote: conn.RemoteAddr().String(), ep: wire.NewEndpoint(conn, transport.Alice)}
	c.ep.SetMaxPayload(s.MaxFrame)
	// The accept-loop goroutine closes conn right after handle returns, which
	// retires a reader blocked mid-read.
	defer c.ep.StopReadAhead()
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
	rec := &sessionRecord{sid: s.sid.Add(1), start: time.Now(), proto: "unknown"}
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
	s.account(c, rec)
	// The session's books are closed either way: its frame buffers go back to
	// the pool, and a next session starts its byte counts from zero.
	c.ep.EndSession()
	return rec.err == nil && rec.done != nil && c.ep.Err() == nil
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
	timeout := s.SessionTimeout
	if timeout == 0 {
		timeout = DefaultSessionTimeout
	}
	deadline := time.Time{} // a negative timeout clears what the idle wait set
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
	if err := json.Unmarshal(hello, h); err != nil {
		*h = helloMsg{} // whatever a torn hello filled in is not to be trusted
		return refuse(rejectMalformed, fmt.Errorf("malformed hello: %v", err))
	}
	if h.V != protoVersion {
		return refuse(rejectVersion, fmt.Errorf("protocol version %d unsupported (want %d)", h.V, protoVersion))
	}
	if err := s.checkHello(h); err != nil {
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
	m := s.metrics()
	m.stageHello.Observe(time.Since(rec.start).Seconds())
	m.started.With(string(h.Kind)).Inc()
	// Trace context: a hello carrying trace IDs joins the client's trace
	// unconditionally (the client sampled it); otherwise the server's own
	// sample rate decides. The span stays nil on untraced sessions — every
	// span helper is nil-safe and allocation-free then.
	if h.TraceID != 0 {
		rec.sp = s.Trace.Join(obs.TraceID(h.TraceID), obs.SpanID(h.SpanID), "server/session")
	} else {
		rec.sp = s.Trace.StartRoot("server/session")
	}
	rec.sp.ChildAt("hello", rec.start).Finish()
	// The carrier itself is always threaded so bound resolution and cache
	// tallies feed sosr_bound_ratio on every session; its spans stay nil
	// (and cost nothing) when the session is untraced.
	rec.tr.sp = rec.sp
	return ds, true
}

// dispatch serves the session's protocol frames, leaving the outcome in rec.
func (s *Server) dispatch(c *srvConn, rec *sessionRecord, ds *dataset) {
	h, ep, tr := &rec.h, c.ep, &rec.tr
	// Handshake validated: pipeline the client's remaining frames (probes,
	// acks, done — and, on a connection the client keeps, the hello of its
	// next session) so they decode off the socket while payloads are built.
	// Started once per connection.
	ep.StartReadAhead()
	view := ds.view(h.Dataset)
	coins := hashing.NewCoins(h.Seed)
	serveStart := time.Now()
	tr.stage = rec.sp.Child("transfer")
	switch h.Kind {
	case KindSet, KindMultiset:
		rec.done, rec.proto, rec.detail, rec.err = s.serveSet(ep, coins, view, h, tr)
	case KindSetsOfSets:
		rec.done, rec.proto, rec.detail, rec.err = s.serveSOS(ep, coins, view, h, tr)
	case KindGraph:
		rec.done, rec.proto, rec.detail, rec.err = s.serveGraph(ep, coins, view, h, tr)
	case KindForest:
		rec.done, rec.proto, rec.detail, rec.err = s.serveForest(ep, coins, view, h, tr)
	default:
		rec.err = fmt.Errorf("%w: kind %q", ErrUnsupported, h.Kind)
		sendErrorFrame(ep, rec.err)
	}
	if errors.Is(rec.err, core.ErrInvalidInstance) {
		s.reject(rec.sid, c.remote, rejectInstance, rec.err, rec.traceID())
	}
	tr.stage.Fail(rec.err)
	tr.stage.Finish()
	s.metrics().stageTransfer.Observe(time.Since(serveStart).Seconds())
}

// traceID is the trace the session belongs to: its span's, or the one the
// hello named when this server keeps no spans.
func (rec *sessionRecord) traceID() obs.TraceID {
	if rec.sp != nil {
		return rec.sp.TraceID()
	}
	return obs.TraceID(rec.h.TraceID)
}

// account closes a served session: metrics, span attributes and the log
// record, all read off the one sessionRecord and the endpoint's counters.
func (s *Server) account(c *srvConn, rec *sessionRecord) {
	m, h, tr, sp := s.metrics(), &rec.h, &rec.tr, rec.sp
	dur := time.Since(rec.start)
	m.stageDone.Observe(dur.Seconds())
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
	case rec.done != nil && !rec.done.OK:
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
		exceeded = s.boundEnvelope() > 0 && ratio > s.boundEnvelope()
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
	if tid != 0 {
		args = append(args, "trace_id", tid.String(), "span_id", sp.ID().String())
	}
	if rec.detail != "" {
		args = append(args, "detail", rec.detail)
	}
	if rec.err != nil {
		args = append(args, "err", rec.err.Error())
	}
	if done := rec.done; done != nil {
		args = append(args,
			"client_rounds", done.Rounds, "client_bytes", done.Bytes,
			"client_msgs", done.Messages, "attempts", done.Attempts)
		if !done.OK {
			args = append(args, "client_err", done.Error)
		}
	}
	lg.Info("session finished", args...)
}

// accept sends the resolved parameters.
func (s *Server) accept(ep *wire.Endpoint, acc *acceptMsg) error {
	acc.V = protoVersion
	return ep.SendFrame(lblAccept, marshalCtl(acc))
}

// recvDone consumes the client's closing report.
func recvDone(ep *wire.Endpoint) (*doneMsg, error) {
	payload, err := ep.RecvExpect(lblDone)
	if err != nil {
		return nil, err
	}
	return parseDone(payload)
}

// parseDone decodes an already-received done payload.
func parseDone(payload []byte) (*doneMsg, error) {
	var d doneMsg
	if err := json.Unmarshal(payload, &d); err != nil {
		return nil, fmt.Errorf("sosrnet: malformed done frame: %v", err)
	}
	return &d, nil
}

// ---- set / multiset ----

// setCellBytes is one cell of a plain set's IBLT: an 8-byte element, a count
// and a checksum.
const setCellBytes = 8 + 4 + 8

func (s *Server) serveSet(ep *wire.Endpoint, coins hashing.Coins, view dsView, h *helloMsg, tr *sessTrace) (*doneMsg, string, string, error) {
	alice := view.set
	variant := "iblt"
	detail := fmt.Sprintf("d=%d", h.D)
	tr.bounds(h.D, h.D)
	tr.audit(h.D, setCellBytes)
	switch {
	case h.CharPoly:
		variant = "charpoly"
		tr.audit(h.D, 8) // one field element per difference
		if h.D <= 0 {
			err := errors.New("charpoly requires a positive difference bound")
			sendErrorFrame(ep, err)
			return nil, variant, detail, err
		}
		// Encoding costs O(n·d) field evaluations before any byte is sent;
		// bound the work by the hosted set, not just MaxBound — a difference
		// beyond this is cheaper over the IBLT path anyway.
		if limit := 4*len(alice) + 1024; h.D > limit {
			err := fmt.Errorf("%w: charpoly bound %d exceeds work limit %d for this dataset (use the IBLT variant)", ErrUnsupported, h.D, limit)
			sendErrorFrame(ep, err)
			return nil, variant, detail, err
		}
	case h.D <= 0:
		variant = "iblt-unknown"
	}
	if err := s.accept(ep, &acceptMsg{Kind: h.Kind, D: h.D}); err != nil {
		return nil, variant, detail, err
	}
	if variant == "charpoly" {
		// EncodeCharPoly is seed-independent: memoize on (dataset, d) only.
		body := s.cachedMsg(view, "charpoly", 0, h.D, tr, func() []byte {
			return setrecon.EncodeCharPoly(alice, h.D+1)
		})
		if err := ep.SendFrame("charpoly", body); err != nil {
			return nil, variant, detail, err
		}
	} else {
		d := h.D
		if variant == "iblt-unknown" {
			esp := tr.child("estimate")
			probe, err := ep.RecvExpect("estimator")
			if err != nil {
				esp.Fail(err)
				esp.Finish()
				return nil, variant, detail, err
			}
			d, err = setrecon.DiffBoundFromEstimator(coins, probe, alice)
			esp.SetInt("d", int64(d))
			esp.Fail(err)
			esp.Finish()
			if err != nil {
				sendErrorFrame(ep, err)
				return nil, variant, detail, err
			}
			tr.bounds(d, d)
			tr.audit(d, setCellBytes)
		}
		body := s.cachedMsg(view, "set-iblt", coins.Master(), d, tr, func() []byte {
			return setrecon.BuildIBLTMsg(coins, alice, d)
		})
		if err := ep.SendFrame("iblt", body); err != nil {
			return nil, variant, detail, err
		}
	}
	done, err := recvDone(ep)
	return done, variant, detail, err
}

// ---- sets of sets ----

// sosPlan is the server-resolved sets-of-sets session shape.
type sosPlan struct {
	proto    string
	p        core.Params
	d        int
	dHat     int
	replicas int
}

// cellBytes is the audit's cost of one differing child set under this plan
// at difference bound d.
func (pl *sosPlan) cellBytes(d int) int {
	switch pl.proto {
	case "naive":
		return core.CellBytes(core.DigestNaive, pl.p, d)
	case "nested":
		return core.CellBytes(core.DigestNested, pl.p, d)
	case "cascade":
		return core.CellBytes(core.DigestCascade, pl.p, d)
	}
	return core.MultiRoundCellBytes(pl.p)
}

func resolveSOS(h *helloMsg, alice [][]uint64) (*sosPlan, error) {
	pl := &sosPlan{d: h.D}
	pl.proto = h.Protocol
	if pl.proto == "" || pl.proto == "auto" {
		if pl.d > 0 {
			pl.proto = "cascade"
		} else {
			pl.proto = "multiround"
		}
	}
	switch pl.proto {
	case "naive", "nested", "cascade", "multiround":
	default:
		return nil, fmt.Errorf("%w: protocol %q", ErrUnsupported, h.Protocol)
	}
	// A derived bound covers the hosted data by construction; an explicit
	// one must, because every encoder below sizes its buffers and count
	// widths from it.
	S := h.S
	if S <= 0 {
		S = max(len(alice), h.CS, 1)
	} else if len(alice) > S {
		return nil, fmt.Errorf("%w: hosted dataset has %d child sets, hello bounds s=%d", core.ErrInvalidInstance, len(alice), S)
	}
	H := h.H
	if H <= 0 {
		H = max(maxChildLen(alice), h.CH, 1)
	} else if m := maxChildLen(alice); m > H {
		return nil, fmt.Errorf("%w: hosted dataset has a child set of %d elements, hello bounds h=%d", core.ErrInvalidInstance, m, H)
	}
	p, err := core.Params{S: S, H: H, U: h.U}.Normalized()
	if err != nil {
		return nil, err
	}
	pl.p = p
	pl.replicas = h.Replicas
	if pl.replicas <= 0 {
		pl.replicas = 3
	}
	pl.dHat = h.DHat
	if pl.dHat <= 0 {
		pl.dHat = core.DHat(max(pl.d, 1, 1), p.S)
	}
	return pl, nil
}

func (s *Server) serveSOS(ep *wire.Endpoint, coins hashing.Coins, view dsView, h *helloMsg, tr *sessTrace) (*doneMsg, string, string, error) {
	alice := view.sos
	pl, err := resolveSOS(h, alice)
	if err != nil {
		sendErrorFrame(ep, err)
		// The client-supplied protocol name did not resolve; a fixed label
		// keeps hostile hellos from minting unbounded metric series.
		return nil, "invalid", "", err
	}
	tr.bounds(pl.d, pl.dHat)
	tr.audit(pl.dHat, pl.cellBytes(pl.d))
	detail := fmt.Sprintf("d=%d d̂=%d s=%d h=%d", pl.d, pl.dHat, pl.p.S, pl.p.H)
	if h.Validate {
		if err := core.Validate(alice, pl.p); err != nil {
			sendErrorFrame(ep, err)
			return nil, pl.proto, detail, err
		}
	}
	acc := &acceptMsg{
		Kind: KindSetsOfSets, Protocol: pl.proto, D: pl.d, DHat: pl.dHat,
		Replicas: pl.replicas, S: pl.p.S, H: pl.p.H, U: pl.p.U,
	}
	if err := s.accept(ep, acc); err != nil {
		return nil, pl.proto, detail, err
	}
	var done *doneMsg
	switch pl.proto {
	case "naive":
		if pl.d > 0 {
			done, err = s.serveReplicatedOneShot(ep, coins, view, pl, core.DigestNaive, "naive-iblt", tr)
		} else {
			// Theorem 3.4: probe, then a single Theorem 3.3 shot.
			esp := tr.child("estimate")
			var probe []byte
			if probe, err = ep.RecvExpect("childdiff-estimator"); err != nil {
				esp.Fail(err)
				esp.Finish()
				break
			}
			dHat := core.EstimateChildDiff(probe, coins, alice, pl.p)
			esp.SetInt("dhat", int64(dHat))
			esp.Finish()
			tr.bounds(1, dHat)
			tr.audit(dHat, pl.cellBytes(1))
			var body []byte
			if body, err = s.sosAliceMsg(view, core.DigestNaive, coins, pl.p, 1, dHat, tr); err != nil {
				sendErrorFrame(ep, err)
				break
			}
			if err = ep.SendFrame("naive-iblt", body); err != nil {
				break
			}
			done, err = recvDone(ep)
		}
	case "nested":
		if pl.d > 0 {
			done, err = s.serveReplicatedOneShot(ep, coins, view, pl, core.DigestNested, "nested-iblt", tr)
		} else {
			done, err = s.serveDoubling(ep, coins, view, pl.p, core.DigestNested, "nested-iblt", tr)
		}
	case "cascade":
		if pl.d > 0 {
			done, err = s.serveReplicatedOneShot(ep, coins, view, pl, core.DigestCascade, "cascade-iblts", tr)
		} else {
			done, err = s.serveDoubling(ep, coins, view, pl.p, core.DigestCascade, "cascade-iblts", tr)
		}
	case "multiround":
		done, err = s.serveMultiRound(ep, coins, view, pl, tr)
	}
	return done, pl.proto, detail, err
}

// serveReplicatedOneShot runs the §3.2 replication loop for a one-round
// protocol: each attempt r uses fresh coins; the client answers ctl/done on
// success (or final failure) and ctl/retry to request the next attempt.
func (s *Server) serveReplicatedOneShot(ep *wire.Endpoint, coins hashing.Coins, view dsView, pl *sosPlan, kind core.DigestKind, label string, tr *sessTrace) (*doneMsg, error) {
	for r := 0; r < pl.replicas; r++ {
		c := coins.Sub("replica", r)
		body, err := s.sosAliceMsg(view, kind, c, pl.p, pl.d, pl.dHat, tr)
		if err != nil {
			sendErrorFrame(ep, err)
			return nil, err
		}
		if err := ep.SendFrame(label, body); err != nil {
			return nil, err
		}
		got, payload, err := ep.RecvFrame()
		if err != nil {
			return nil, err
		}
		switch got {
		case lblDone:
			return parseDone(payload)
		case lblRetry:
			continue
		default:
			return nil, fmt.Errorf("sosrnet: unexpected frame %q", got)
		}
	}
	err := fmt.Errorf("%w: %d replicas", ErrGaveUp, pl.replicas)
	sendErrorFrame(ep, err)
	return nil, err
}

// serveDoubling runs the Corollary 3.6/3.8 repeated-doubling loop: attempt k
// uses d = 2^k with fresh coins; the client acknowledges each attempt with a
// protocol "ack"/"retry" frame (the same 1-byte messages the in-process run
// records) and closes with ctl/done.
func (s *Server) serveDoubling(ep *wire.Endpoint, coins hashing.Coins, view dsView, p core.Params, kind core.DigestKind, label string, tr *sessTrace) (*doneMsg, error) {
	for k := 0; k < maxDoublingAttempts; k++ {
		d := 1 << k
		att := coins.Sub("doubling-attempt", k)
		// Each attempt re-records the bounds; the surviving values are the
		// attempt the client acked (or the last one tried).
		tr.bounds(d, core.DHat(d, p.S))
		tr.audit(core.DHat(d, p.S), core.CellBytes(kind, p, d))
		body, err := s.sosAliceMsg(view, kind, att, p, d, core.DHat(d, p.S), tr)
		if err != nil {
			sendErrorFrame(ep, err)
			return nil, err
		}
		if err := ep.SendFrame(label, body); err != nil {
			return nil, err
		}
		got, _, err := ep.RecvFrame()
		if err != nil {
			return nil, err
		}
		switch got {
		case "ack":
			return recvDone(ep)
		case "retry":
			// Give up when the bound outgrows the instance — or the server's
			// own cap, so endless client retries cannot inflate allocations.
			if tooBigDoubling(d, p.S, p.H) || d > s.maxBound() {
				err := fmt.Errorf("%w: doubling bound %d exceeds instance size", ErrGaveUp, d)
				sendErrorFrame(ep, err)
				return nil, err
			}
		default:
			return nil, fmt.Errorf("sosrnet: unexpected frame %q", got)
		}
	}
	err := fmt.Errorf("%w: doubling attempts exhausted", ErrGaveUp)
	sendErrorFrame(ep, err)
	return nil, err
}

// serveMultiRound runs Theorem 3.9 (known d, replicated) or 3.10 (unknown d,
// probe first) over the wire, the only genuinely multi-round flow.
func (s *Server) serveMultiRound(ep *wire.Endpoint, coins hashing.Coins, view dsView, pl *sosPlan, tr *sessTrace) (*doneMsg, error) {
	alice := view.sos
	attempts := pl.replicas
	dHat := pl.dHat
	if pl.d <= 0 {
		attempts = 1
		esp := tr.child("estimate")
		probe, err := ep.RecvExpect("childdiff-estimator")
		if err != nil {
			esp.Fail(err)
			esp.Finish()
			return nil, err
		}
		dHat = core.EstimateChildDiff(probe, coins, alice, pl.p)
		esp.SetInt("dhat", int64(dHat))
		esp.Finish()
		tr.bounds(pl.d, dHat)
		tr.audit(dHat, pl.cellBytes(pl.d))
	}
	for r := 0; r < attempts; r++ {
		c := coins
		if pl.d > 0 {
			c = coins.Sub("replica", r)
			dHat = core.DHat(pl.d, pl.p.S)
			tr.bounds(pl.d, dHat)
		}
		round1 := s.cachedMsg(view, "mr1", c.Master(), dHat, tr, func() []byte {
			return core.MRAlice1(c, alice, dHat)
		})
		if err := ep.SendFrame("hash-iblt", round1); err != nil {
			return nil, err
		}
		got, payload, err := ep.RecvFrame()
		if err != nil {
			return nil, err
		}
		switch got {
		case lblRetry:
			continue
		case lblDone:
			return parseDone(payload)
		case "hash-iblt+estimators":
		default:
			return nil, fmt.Errorf("sosrnet: unexpected frame %q", got)
		}
		esp := tr.child("encode")
		esp.SetStr("proto", "mr3")
		round3, _, err := core.MRAlice3(c, alice, pl.p, pl.d, payload)
		esp.Fail(err)
		esp.Finish()
		if err != nil {
			sendErrorFrame(ep, err)
			return nil, err
		}
		if err := ep.SendFrame("pair-payloads", round3); err != nil {
			return nil, err
		}
		got, payload, err = ep.RecvFrame()
		if err != nil {
			return nil, err
		}
		switch got {
		case lblDone:
			return parseDone(payload)
		case lblRetry:
			continue
		default:
			return nil, fmt.Errorf("sosrnet: unexpected frame %q", got)
		}
	}
	err := fmt.Errorf("%w: %d attempts", ErrGaveUp, attempts)
	sendErrorFrame(ep, err)
	return nil, err
}

// ---- graph ----

func (s *Server) serveGraph(ep *wire.Endpoint, coins hashing.Coins, view dsView, h *helloMsg, tr *sessTrace) (*doneMsg, string, string, error) {
	ga := view.g
	// The scheme is the protocol label; anything unresolved maps to a fixed
	// label so hostile hellos cannot mint unbounded metric series.
	proto := "invalid"
	switch h.Scheme {
	case "degree", "neighborhood":
		proto = h.Scheme
	}
	detail := fmt.Sprintf("d=%d", h.D)
	if h.N != ga.N {
		err := fmt.Errorf("vertex count mismatch: client %d, dataset %d", h.N, ga.N)
		sendErrorFrame(ep, err)
		return nil, proto, detail, err
	}
	d := h.D
	if d < 1 {
		d = 1
	}
	tr.bounds(d, d)
	acc := &acceptMsg{Kind: KindGraph, D: d}
	var frames [][]byte
	var err error
	switch h.Scheme {
	case "degree":
		sigShape, sigD := graphrecon.DegreeOrderSigShape(ga.N, graphrecon.DegreeOrderParams{H: h.TopH, D: d})
		tr.audit(core.DHat(sigD, sigShape.S), core.CellBytes(core.DigestCascade, sigShape, sigD))
		// Both frames come from one encode pass; memoize them together.
		frames, err = s.cachedFrames(view, "graph-degree", coins.Master(), d,
			fmt.Sprintf("h=%d", h.TopH), tr, func() ([][]byte, error) {
				msgs, err := graphrecon.DegreeOrderAlice(coins, ga, graphrecon.DegreeOrderParams{H: h.TopH, D: d})
				if err != nil {
					return nil, err
				}
				return [][]byte{msgs.Sig, msgs.Edges}, nil
			})
	case "neighborhood":
		// The side encoding fixes maxSig (part of the accept message and the
		// cache key), so it runs uncached; the expensive IBLT frames behind
		// it are memoized.
		var sideA *graphrecon.NbrSide
		if sideA, err = graphrecon.NeighborhoodEncode(ga, h.M); err != nil {
			break
		}
		acc.MaxSig = max(sideA.MaxSig, h.MaxSig, 1)
		p := graphrecon.NeighborhoodParams{M: h.M, D: d, SigBudget: h.SigBudget}
		if budget := graphrecon.NeighborhoodBudget(p); budget > s.maxBound() {
			err = fmt.Errorf("%w: signature budget %d exceeds server bound %d", ErrUnsupported, budget, s.maxBound())
			break
		}
		sigShape, sigD := graphrecon.NeighborhoodSigShape(ga.N, p, acc.MaxSig)
		tr.audit(core.DHat(sigD, sigShape.S), core.CellBytes(core.DigestCascade, sigShape, sigD))
		frames, err = s.cachedFrames(view, "graph-nbr", coins.Master(), d,
			fmt.Sprintf("m=%d,sig=%d,budget=%d", h.M, acc.MaxSig, h.SigBudget), tr, func() ([][]byte, error) {
				msgs, err := graphrecon.NeighborhoodAlice(coins, ga, p, sideA, acc.MaxSig)
				if err != nil {
					return nil, err
				}
				return [][]byte{msgs.Sig, msgs.Edges}, nil
			})
	default:
		err = fmt.Errorf("%w: graph scheme %q", ErrUnsupported, h.Scheme)
	}
	if err != nil {
		sendErrorFrame(ep, err)
		return nil, proto, detail, err
	}
	if err := s.accept(ep, acc); err != nil {
		return nil, proto, detail, err
	}
	if err := ep.SendFrame("cascade-iblts", frames[0]); err != nil {
		return nil, proto, detail, err
	}
	if err := ep.SendFrame("edge-iblt", frames[1]); err != nil {
		return nil, proto, detail, err
	}
	done, err := recvDone(ep)
	return done, proto, detail, err
}

// ---- forest ----

func (s *Server) serveForest(ep *wire.Endpoint, coins hashing.Coins, ds dsView, h *helloMsg, tr *sessTrace) (*doneMsg, string, string, error) {
	const proto = "forest"
	infoB := forest.SideInfo{N: h.N, Depth: h.Depth, MaxChild: h.MaxChild}
	maxBudget := h.MaxBudget
	if maxBudget <= 0 || maxBudget > s.maxBound() {
		maxBudget = min(1<<20, s.maxBound())
	}
	detail := fmt.Sprintf("d=%d sigma=%d", h.D, h.Sigma)
	acc := &acceptMsg{
		Kind: KindForest, D: h.D,
		N: ds.fi.N, Depth: ds.fi.Depth, MaxChild: ds.fi.MaxChild, MaxBudget: maxBudget,
	}
	if err := s.accept(ep, acc); err != nil {
		return nil, proto, detail, err
	}
	// The forest plan — and therefore the payload — depends on the client's
	// side info, which has no dedicated cache-key field; it rides in Extra.
	planExtra := func(sigma, budget int) string {
		return fmt.Sprintf("n=%d,dep=%d,mc=%d,sigma=%d,budget=%d", infoB.N, infoB.Depth, infoB.MaxChild, sigma, budget)
	}
	if h.D > 0 {
		tr.bounds(h.D, h.D)
		rp, params := forest.Plan(ds.fi, infoB, forest.ReconParams{Sigma: h.Sigma, D: h.D, Budget: h.Budget})
		tr.audit(core.DHat(rp.Budget, params.S), core.CellBytes(core.DigestCascade, params, rp.Budget))
		if rp.Budget > s.maxBound() {
			err := fmt.Errorf("%w: forest budget %d exceeds server bound %d", ErrUnsupported, rp.Budget, s.maxBound())
			sendErrorFrame(ep, err)
			return nil, proto, detail, err
		}
		frames, err := s.cachedFrames(ds, "forest", coins.Master(), h.D,
			planExtra(h.Sigma, h.Budget), tr, func() ([][]byte, error) {
				sig, meta, err := forest.AliceMsg(coins, ds.f, rp, params)
				if err != nil {
					return nil, err
				}
				return [][]byte{sig, meta}, nil
			})
		if err != nil {
			sendErrorFrame(ep, err)
			return nil, proto, detail, err
		}
		if err := ep.SendFrame("cascade-iblts", frames[0]); err != nil {
			return nil, proto, detail, err
		}
		if err := ep.SendFrame("forest-meta", frames[1]); err != nil {
			return nil, proto, detail, err
		}
		done, err := recvDone(ep)
		return done, proto, detail, err
	}
	// Auto: verified doubling over the budget (Corollary 3.8 applied to
	// forests), with per-attempt coins and protocol ack/retry frames.
	for budget, k := 16, 0; budget <= maxBudget; budget, k = budget*2, k+1 {
		att := coins.Sub("forest-attempt", k)
		rp, params := forest.Plan(ds.fi, infoB, forest.ReconParams{Sigma: 1, D: 1, Budget: budget})
		tr.bounds(1, budget)
		tr.audit(core.DHat(rp.Budget, params.S), core.CellBytes(core.DigestCascade, params, rp.Budget))
		frames, err := s.cachedFrames(ds, "forest-auto", att.Master(), 1,
			planExtra(1, budget), tr, func() ([][]byte, error) {
				sig, meta, err := forest.AliceMsg(att, ds.f, rp, params)
				if err != nil {
					return nil, err
				}
				return [][]byte{sig, meta}, nil
			})
		if err != nil {
			sendErrorFrame(ep, err)
			return nil, proto, detail, err
		}
		if err := ep.SendFrame("cascade-iblts", frames[0]); err != nil {
			return nil, proto, detail, err
		}
		if err := ep.SendFrame("forest-meta", frames[1]); err != nil {
			return nil, proto, detail, err
		}
		got, _, err := ep.RecvFrame()
		if err != nil {
			return nil, proto, detail, err
		}
		switch got {
		case "ack":
			done, err := recvDone(ep)
			return done, proto, detail, err
		case "retry":
		default:
			return nil, proto, detail, fmt.Errorf("sosrnet: unexpected frame %q", got)
		}
	}
	err := fmt.Errorf("%w: forest budget exceeded %d", ErrGaveUp, maxBudget)
	sendErrorFrame(ep, err)
	return nil, proto, detail, err
}

// ---- helpers ----

func maxChildLen(parent [][]uint64) int {
	m := 1
	for _, cs := range parent {
		if len(cs) > m {
			m = len(cs)
		}
	}
	return m
}

// toGraph converts the public edge-list form into the internal bitset graph
// (mirrors sosr.Graph's own conversion).
func toGraph(g sosr.Graph) *graph.Graph {
	out := graph.New(g.N)
	for _, e := range g.Edges {
		if e[0] != e[1] {
			out.AddEdge(e[0], e[1])
		}
	}
	return out
}

func fromGraph(g *graph.Graph) sosr.Graph {
	return sosr.Graph{N: g.N, Edges: g.Edges()}
}

func toForest(f sosr.Forest) *forest.Forest {
	return &forest.Forest{Parent: append([]int32(nil), f.Parent...)}
}
