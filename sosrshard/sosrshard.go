// Package sosrshard partitions hosted datasets across multiple sosrd
// instances and fans one logical reconciliation out over all of them, with
// per-shard replica failover and hedged requests.
//
// The sets-of-sets protocols of the paper decompose a parent set into
// independent child-set reconciliations, which makes the workload
// embarrassingly partitionable: a deterministic shard map
// (internal/shardmap, rendezvous hashing) assigns every top-level element —
// or every child-set identity — to exactly one shard, both parties compute
// the assignment without communication, and each shard pair reconciles its
// slice with the paper's communication bounds intact per shard. Because a
// one-round reconcile costs O(d log d) bits — not O(n) — re-asking a second
// replica of a shard is nearly free, which is what makes replication,
// failover, and hedging cheap enough to be on by default.
//
// A deployment is described by a shardmap.Topology: k ≥ 1 replica addresses
// per shard, all hosting the identical slice, plus a monotonic epoch. The
// two halves:
//
//   - Coordinator hosts a logical dataset across every replica server of
//     every shard and routes live Update* mutations to all replicas of the
//     owning shard(s).
//   - Client fans a reconcile out as one concurrent session per shard:
//     every shard but the last on a goroutine of its own, the last on the
//     caller's. Within a shard the attempts run one after another on that
//     goroutine, trying replicas in rendezvous order (keyed on the per-shard
//     session seed, so steady-state load spreads): a dial or connection
//     failure fails over to the next replica after a short backoff. An
//     optional hedge is the only attempt that runs beside another: it races
//     a second replica against a straggling first, taking whichever answers
//     first. The per-shard results merge into a single result with one
//     itemized Stats report (Σ shard protocol bytes + Σ shard framing ==
//     total TCP bytes of the winning sessions, the same parity the unsharded
//     wire protocol keeps).
//
// A shard is its position in the topology: its slice of the keys, its public
// coins and its identity derive from (position, shard count, epoch) alone, and
// the replica addresses only route. Every session carries those coordinates —
// the positional shard-identity hash, shard count, topology epoch and
// fingerprint — in the hello. A server hosting a different slice rejects the
// handshake (ErrMisrouted), so a client holding the shard list in another
// order fails loudly instead of quietly reconciling the wrong slice; a server
// at a different epoch rejects with ErrStaleEpoch, which a reconcile returns
// as it is: the caller re-resolves the topology, adopts it with
// Client.SetTopology and retries.
package sosrshard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"sosr"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/setutil"
	"sosr/internal/shardmap"
	"sosr/sosrnet"
)

// Topology describes a replicated sharded deployment; see shardmap.Topology.
type Topology = shardmap.Topology

// NewTopology builds a topology at the given epoch; shards[i] lists shard
// i's replica addresses. See shardmap.NewTopology.
func NewTopology(epoch uint64, shards [][]string) (*Topology, error) {
	return shardmap.NewTopology(epoch, shards)
}

// SingleReplica builds a one-replica-per-shard topology over addrs, the
// unreplicated layout earlier deployments configured as a flat address list.
func SingleReplica(epoch uint64, addrs []string) (*Topology, error) {
	return shardmap.SingleReplica(epoch, addrs)
}

// retryBackoff is the pause before a failover attempt dials the next replica.
const retryBackoff = 25 * time.Millisecond

// ShardStats itemizes one shard's share of a fanned-out reconciliation.
type ShardStats struct {
	// Index is the shard's position in the topology.
	Index int
	// Replica is the address of the replica that served the winning session.
	Replica string
	// Attempts counts the sessions opened against this shard's replicas:
	// 1 means the first replica answered; more mean failovers and/or a hedge.
	Attempts int
	// Net is the winning session's full accounting, protocol bytes and
	// framing overhead separated exactly as for an unsharded session. Losing
	// attempts (failed replicas, hedge losers) are not included.
	Net sosrnet.NetStats
}

// Stats aggregates a fanned-out reconciliation's communication: the sums
// across shards plus the per-shard itemization. The parity invariant of the
// unsharded wire protocol survives sharding: WireIn+WireOut ==
// Protocol.TotalBytes + Overhead, and each summand is itself the sum of the
// per-shard values (of the winning sessions; abandoned attempts are counted
// only in Failovers/Hedges).
type Stats struct {
	// Protocol sums the per-shard protocol stats — byte for byte what the
	// in-process simulations of the per-shard slices report.
	Protocol sosr.Stats
	// WireIn / WireOut are total connection bytes across all winning shard
	// sessions.
	WireIn, WireOut int64
	// Overhead is the summed framing + control-frame cost across shards.
	Overhead int64
	// Attempts sums protocol attempts (replication/doubling) across shards.
	Attempts int
	// Failovers counts replica attempts that failed with a connection-level
	// error and triggered (or exhausted into) another attempt.
	Failovers int
	// Hedges counts shards where the hedge timer fired and a second replica
	// was raced; HedgeWins counts those the hedged session won.
	Hedges, HedgeWins int
	// Shards itemizes every shard's winning session, in shard-index order.
	Shards []ShardStats
}

func (st *Stats) add(index int, oc *shardWin) {
	ns := oc.ns
	st.Protocol.Rounds += ns.Protocol.Rounds
	st.Protocol.TotalBytes += ns.Protocol.TotalBytes
	st.Protocol.AliceBytes += ns.Protocol.AliceBytes
	st.Protocol.BobBytes += ns.Protocol.BobBytes
	st.Protocol.Messages += ns.Protocol.Messages
	st.WireIn += ns.WireIn
	st.WireOut += ns.WireOut
	st.Overhead += ns.Overhead
	st.Attempts += ns.Attempts
	st.Failovers += oc.failovers
	if oc.hedged {
		st.Hedges++
	}
	if oc.hedgeWin {
		st.HedgeWins++
	}
	st.Shards = append(st.Shards, ShardStats{
		Index: index, Replica: oc.replica, Attempts: oc.attempts, Net: *ns,
	})
}

// Client reconciles local replicas against a sharded deployment: one
// concurrent fan-out session per shard, the last shard's on the caller's
// goroutine; within a shard, replicas tried one at a time in rendezvous order
// with failover, and an optional hedge the only concurrent attempt; results
// merged. A caller's cancel severs the sessions in flight. Configure the
// fields before the first reconcile. Methods are safe for concurrent use. The
// per-replica session clients keep their connections between reconciles (see
// sosrnet.Client); Close releases them.
type Client struct {
	// Timeout bounds each per-replica session (dial through close).
	Timeout time.Duration
	// HedgeDelay, when positive and the shard has more than one replica,
	// races a second replica after an attempt has been in flight this long,
	// taking whichever session finishes first — the classic tail-latency
	// cut. The loser is cancelled, its connection severed and its bytes
	// discarded. A hedge is the only attempt that overlaps another, and at
	// most one is launched per shard per reconcile; without it a shard's
	// attempts run serially on its goroutine. 0 disables hedging.
	HedgeDelay time.Duration
	// PerShardDiff, when set, drops the caller's logical difference bound
	// from each shard session so every shard derives its own d̂ (the strata
	// estimator for sets/multisets, the child-difference probe or doubling
	// for sets-of-sets). A logical bound must cover the worst single shard —
	// all of d may land on one — so per-shard estimation sizes each sketch
	// to the shard's actual slice instead. Ignored for charpoly sessions,
	// which require an explicit bound.
	PerShardDiff bool
	// Obs, when set before the first reconcile, receives fan-out metrics:
	// per-shard session latency, straggler spread, fan-out outcomes,
	// failover and hedge counters (see metrics.go), and the per-replica
	// session clients' own families (connection dials, reuses and stale
	// redials; sketch-cache events; peel iterations). Nil disables
	// instrumentation.
	Obs *obs.Registry
	// Trace, when set, samples one distributed trace per reconcile: a
	// "shard/reconcile" root, one "shard/fanout" child per shard, one
	// "shard/attempt" child per replica session (failovers and hedges
	// included), and — because the attempt span rides each session's hello —
	// the per-shard client and server stage spans under them. A span already
	// in the caller's context takes precedence over sampling.
	Trace *obs.Tracer
	// Logger, when set, receives fan-out event logs (replica failovers and
	// hedge launches), each line carrying the reconcile's trace_id so logs
	// correlate with /debug/traces. Nil discards them.
	Logger *slog.Logger

	obsOnce sync.Once
	met     *clientMetrics

	mu      sync.Mutex
	topo    *shardmap.Topology
	clients [][]*sosrnet.Client // [shard][replica], lazily built per topology
}

// Dial returns a client for the given topology. The topology must match the
// deployment's — every server verifies the positional shard identity, count,
// epoch and fingerprint against the session hello. No connection is made
// until a reconcile method runs.
func Dial(topo *Topology) (*Client, error) {
	if topo == nil {
		return nil, errors.New("sosrshard: nil topology")
	}
	return &Client{topo: topo}, nil
}

// SetTopology swaps the client's topology — the way back after an
// ErrStaleEpoch rejection: the caller re-resolves the topology from whatever
// the deployment keeps as its source of truth and retries. In-flight fan-outs
// finish against the topology they started with; per-replica session clients
// (and their warm sketch caches) are rebuilt lazily, and the old ones give up
// the connections they had parked.
func (c *Client) SetTopology(topo *Topology) error {
	if topo == nil {
		return errors.New("sosrshard: nil topology")
	}
	c.mu.Lock()
	old := c.clients
	c.topo = topo
	c.clients = nil
	c.mu.Unlock()
	closeClients(old)
	return nil
}

// Close closes the connections the per-replica session clients have parked.
// Fan-outs in flight finish normally and close theirs; the Client stays
// usable, on a connection per session.
func (c *Client) Close() error {
	c.mu.Lock()
	cls := c.clients
	c.mu.Unlock()
	closeClients(cls)
	return nil
}

func closeClients(cls [][]*sosrnet.Client) {
	for _, reps := range cls {
		for _, cl := range reps {
			_ = cl.Close()
		}
	}
}

// state is one fan-out's immutable view: the topology and its per-replica
// session clients. Clients persist across reconciles (until SetTopology), so
// each replica client's Bob-sketch cache stays warm.
type state struct {
	topo    *shardmap.Topology
	clients [][]*sosrnet.Client
}

// state returns the current view by value: a fan-out hands it to every
// shard, and nothing of it is allocated per reconcile.
func (c *Client) state() (state, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.topo == nil {
		return state{}, errors.New("sosrshard: client has no topology")
	}
	if c.clients == nil {
		topo := c.topo
		cls := make([][]*sosrnet.Client, topo.NumShards())
		for i := range cls {
			reps := topo.Replicas(i)
			cls[i] = make([]*sosrnet.Client, len(reps))
			for j, addr := range reps {
				cls[i][j] = &sosrnet.Client{
					Addr:             addr,
					Timeout:          c.Timeout,
					Obs:              c.Obs,
					ShardID:          topo.ShardIDHash(i),
					ShardCount:       topo.NumShards(),
					ShardEpoch:       topo.Epoch(),
					ShardFingerprint: topo.Fingerprint(),
				}
			}
		}
		c.clients = cls
	}
	return state{topo: c.topo, clients: c.clients}, nil
}

var discardLogger = slog.New(slog.DiscardHandler)

func (c *Client) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return discardLogger
}

// shardSeed derives the public-coin seed for one shard's session from the
// logical seed and the shard's position, so distinct shards run independent
// hash families and no address enters the coins. It doubles as the rendezvous
// key for replica ordering: distinct logical seeds spread shard primaries
// across replicas.
func shardSeed(seed uint64, index int) uint64 {
	return hashing.NewCoins(seed).Seed("shard", index)
}

// reconcile is the one fan-out under every Client method: split the local
// replica by ownership, run one session per shard (fanOut), and merge the
// per-shard results, with the merged Stats itemizing the winning sessions in
// shard order. run reconciles one shard's part against one replica under the
// shard's derived seed. The whole is traced under a "shard/reconcile" root — a
// child of the caller's context span when one is present, a sampled root from
// c.Trace otherwise — whose byte attributes come from the Stats value the
// caller gets, so they equal the itemized report exactly.
func reconcile[P, R any](ctx context.Context, c *Client, name, kind string, seed uint64,
	split func(topo *shardmap.Topology) [][]P,
	run func(ctx context.Context, cl *sosrnet.Client, part []P, seed uint64) (R, *sosrnet.NetStats, error),
	merge func(parts []R, stats *Stats) R) (R, *Stats, error) {
	sp := obs.SpanFromContext(ctx).Child("shard/reconcile")
	if sp == nil {
		sp = c.Trace.StartRoot("shard/reconcile")
	}
	sp.SetStr("dataset", name)
	sp.SetStr("kind", kind)
	ctx = obs.ContextWithSpan(ctx, sp)
	fan := func() (res R, _ *Stats, err error) {
		st, err := c.state()
		if err != nil {
			return res, nil, err
		}
		parts := split(st.topo)
		runs, err := fanOut(ctx, c, st, seed, func(ctx context.Context, i int, cl *sosrnet.Client, seed uint64) (R, *sosrnet.NetStats, error) {
			return run(ctx, cl, parts[i], seed)
		})
		if err != nil {
			return res, nil, err
		}
		stats := &Stats{Shards: make([]ShardStats, 0, len(runs))}
		results := make([]R, len(runs))
		for i := range runs {
			results[i] = runs[i].res
			stats.add(i, &runs[i].shardWin)
		}
		return merge(results, stats), stats, nil
	}
	res, stats, err := fan()
	if stats != nil {
		sp.SetInt("proto_bytes", int64(stats.Protocol.TotalBytes))
		sp.SetInt("wire_in", stats.WireIn)
		sp.SetInt("wire_out", stats.WireOut)
		sp.SetInt("overhead", stats.Overhead)
		sp.SetInt("attempts", int64(stats.Attempts))
		sp.SetInt("failovers", int64(stats.Failovers))
		sp.SetInt("hedges", int64(stats.Hedges))
	}
	sp.Fail(err)
	sp.Finish()
	return res, stats, err
}

// shardFn runs one shard's session against one replica's client, with the
// shard's derived session seed.
type shardFn[R any] func(ctx context.Context, shard int, cl *sosrnet.Client, seed uint64) (R, *sosrnet.NetStats, error)

// shardWin is one shard's winning session and its attempt accounting.
type shardWin struct {
	ns        *sosrnet.NetStats
	replica   string
	attempts  int
	failovers int
	hedged    bool
	hedgeWin  bool
}

// shardRun is one shard's part of a fan-out: its result and how it was won,
// or its error, and its wall-clock time, failover and hedge waits included. A
// fan-out keeps all of its shards' in one slice.
type shardRun[R any] struct {
	res R
	shardWin
	err error
	dur time.Duration
}

// attemptResult carries one replica session's result.
type attemptResult[R any] struct {
	viaHedge bool
	replica  string
	res      R
	ns       *sosrnet.NetStats
	err      error
}

// retryable reports whether a shard session error is worth another replica:
// dial and connection-level IO failures are; protocol, validation, and
// server-reported errors are not — every replica hosts the identical slice
// and would answer the same.
func retryable(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, sosrnet.ErrServer):
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// shardTry is what one shard's attempts share: its replica clients, their
// rendezvous order for the shard's key, and the fan-out span every attempt is
// a child of.
type shardTry[R any] struct {
	c     *Client
	cls   []*sosrnet.Client
	order []int
	shard int
	key   uint64
	fn    shardFn[R]
	fsp   *obs.Span
}

// attempt runs the shard's n-th session (from 1) on the next replica in
// rendezvous order, under its own "shard/attempt" span, so a trace shows
// exactly which replicas were asked — first try, failover, hedge — and which
// one won.
func (s *shardTry[R]) attempt(ctx context.Context, n int, viaHedge bool) attemptResult[R] {
	cl := s.cls[s.order[(n-1)%len(s.order)]]
	asp := s.fsp.Child("shard/attempt")
	asp.SetStr("replica", cl.Addr)
	asp.SetInt("attempt", int64(n))
	asp.SetBool("hedge", viaHedge)
	res, ns, err := s.fn(obs.ContextWithSpan(ctx, asp), s.shard, cl, s.key)
	// A loser cancelled because another attempt won is an expected
	// outcome, not a failure worth flagging the whole trace for.
	if err != nil && ctx.Err() != nil {
		asp.SetBool("cancelled", true)
	} else {
		asp.Fail(err)
	}
	asp.Finish()
	return attemptResult[R]{viaHedge: viaHedge, replica: cl.Addr, res: res, ns: ns, err: err}
}

// failover records a retryable attempt failure: the shard's failover counter
// and a warning log line.
func (s *shardTry[R]) failover(out *shardRun[R], r *attemptResult[R]) {
	out.failovers++
	if m := s.c.metrics(); m != nil {
		m.failovers.With(strconv.Itoa(s.shard)).Inc()
	}
	s.c.logger().Warn("shard replica attempt failed; failing over",
		"shard", s.shard, "replica", r.replica, "attempts", out.attempts,
		"err", r.err.Error(), "trace_id", s.fsp.TraceID().String())
}

// runShard drives one shard's session to a winner on the calling goroutine,
// under the caller's ctx: replicas in rendezvous order for this shard's key,
// one attempt at a time, failing over after a backoff on retryable errors; a
// non-retryable error fails the shard immediately. A caller's cancel reaches
// an attempt through its session, which severs its connection, and the
// backoff wait. Only a shard that can hedge races two attempts (see race).
func runShard[R any](ctx context.Context, c *Client, st state, shard int, key uint64, fn shardFn[R], out *shardRun[R]) error {
	s := shardTry[R]{c: c, cls: st.clients[shard], order: st.topo.ReplicaOrder(shard, key),
		shard: shard, key: key, fn: fn, fsp: obs.SpanFromContext(ctx)}
	// Sessions per shard per reconcile, hedges included.
	maxAttempts := max(2, len(s.order))
	canHedge := c.HedgeDelay > 0 && len(s.order) > 1
	for {
		var r attemptResult[R]
		if canHedge && !out.hedged && out.attempts+2 <= maxAttempts {
			r = s.race(ctx, out)
		} else {
			out.attempts++
			r = s.attempt(ctx, out.attempts, false)
		}
		if r.err == nil {
			out.res, out.ns, out.replica = r.res, r.ns, r.replica
			out.hedgeWin = out.hedged && r.viaHedge
			if m := c.metrics(); m != nil && out.hedged {
				outcome := "loss"
				if r.viaHedge {
					outcome = "win"
				}
				m.hedges.With(outcome).Inc()
			}
			return nil
		}
		if !retryable(r.err) {
			return r.err
		}
		s.failover(out, &r)
		if out.attempts >= maxAttempts {
			return fmt.Errorf("sosrshard: %d replica attempts failed: %w", out.attempts, r.err)
		}
		t := time.NewTimer(retryBackoff)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// race runs the shard's next attempt, and when it is still in flight after
// HedgeDelay, a hedge on the next replica beside it. The first success wins
// and cancels the other, severing its connection. A retryable failure while
// the other is still in flight fails over to it; race returns the success, a
// non-retryable failure, or the last failure. It is the one place a shard's
// attempts overlap, so only a shard that can hedge pays for a cancel context,
// a result channel and attempt goroutines.
func (s *shardTry[R]) race(ctx context.Context, out *shardRun[R]) attemptResult[R] {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered for both attempts: a cancelled loser can always deliver its
	// result and exit, even after race has returned.
	results := make(chan attemptResult[R], 2)
	// Each attempt goroutine gets its own copy of s, so that s itself stays
	// on the stack of a shard that never races.
	launch := func(st shardTry[R], viaHedge bool) {
		out.attempts++
		go func(n int) { results <- st.attempt(actx, n, viaHedge) }(out.attempts)
	}
	launch(*s, false)
	ht := time.NewTimer(s.c.HedgeDelay)
	defer ht.Stop()
	for pending := 1; ; {
		select {
		case <-ht.C:
			out.hedged = true
			if m := s.c.metrics(); m != nil {
				m.hedges.With("launched").Inc()
			}
			s.c.logger().Info("hedging straggling shard with a second replica",
				"shard", s.shard, "trace_id", s.fsp.TraceID().String())
			launch(*s, true)
			pending++
		case r := <-results:
			if pending--; r.err == nil || pending == 0 || !retryable(r.err) {
				return r
			}
			s.failover(out, &r)
		}
	}
}

// fanOut runs every shard's attempts concurrently — the last shard on the
// caller's goroutine, each other shard on one of its own — and returns the
// per-shard winning outcomes, or the first shard error (annotated with the
// shard). With a registry configured it records every shard's wall-clock
// latency (failover and hedge waits included), the fan-out's straggler
// spread (slowest minus fastest — the wall-clock cost sharding adds over the
// slowest shard alone), and the fan-out outcome.
func fanOut[R any](ctx context.Context, c *Client, st state, seed uint64, fn shardFn[R]) ([]shardRun[R], error) {
	m := c.metrics()
	runs := make([]shardRun[R], st.topo.NumShards())
	run := func(i int) {
		r := &runs[i]
		t0 := time.Now()
		fsp := obs.SpanFromContext(ctx).ChildAt("shard/fanout", t0)
		fsp.SetInt("shard", int64(i))
		r.err = runShard(obs.ContextWithSpan(ctx, fsp), c, st, i, shardSeed(seed, i), fn, r)
		t1 := time.Now()
		r.dur = t1.Sub(t0)
		fsp.Fail(r.err)
		fsp.FinishAt(t1)
	}
	last := len(runs) - 1
	var wg sync.WaitGroup
	wg.Add(last)
	for i := range last {
		go func() { defer wg.Done(); run(i) }()
	}
	run(last)
	wg.Wait()
	if m != nil {
		lo, hi := runs[0].dur, runs[0].dur
		for i := range runs {
			d := runs[i].dur
			m.session.With(strconv.Itoa(i)).Observe(d.Seconds())
			lo, hi = min(lo, d), max(hi, d)
		}
		m.straggler.Observe((hi - lo).Seconds())
	}
	var firstErr error
	for i := range runs {
		if err := runs[i].err; err != nil {
			firstErr = fmt.Errorf("sosrshard: shard %d: %w", i, err)
			break
		}
	}
	if m != nil {
		status := "ok"
		if firstErr != nil {
			status = "error"
		}
		m.fanouts.With(status).Inc()
	}
	return runs, firstErr
}

// Sets reconciles a local set against the sharded hosted set `name`: the
// local set splits by element ownership, every shard session recovers its
// slice of the server-side set, and the merged result is exactly what an
// unsharded reconcile of the whole set would recover. cfg applies per shard
// (cfg.KnownDiff must bound the whole logical difference — any single shard
// may own all of it — unless PerShardDiff lets each shard estimate its own).
// local is read only during the call, in place when it is already canonical,
// and the result shares no memory with it.
func (c *Client) Sets(ctx context.Context, name string, local []uint64, cfg sosr.SetConfig) (*sosr.SetResult, *Stats, error) {
	canon := setutil.CanonicalView(local)
	if c.PerShardDiff && !cfg.UseCharPoly {
		cfg.KnownDiff = 0
	}
	return reconcile(ctx, c, name, "set", cfg.Seed,
		func(topo *shardmap.Topology) [][]uint64 { return topo.SplitElems(canon) },
		func(ctx context.Context, cl *sosrnet.Client, part []uint64, seed uint64) (*sosr.SetResult, *sosrnet.NetStats, error) {
			sc := cfg
			sc.Seed = seed
			return cl.Sets(ctx, name, part, sc)
		},
		func(parts []*sosr.SetResult, stats *Stats) *sosr.SetResult {
			merged := &sosr.SetResult{
				Stats:     stats.Protocol,
				Recovered: concat(parts, func(r *sosr.SetResult) []uint64 { return r.Recovered }),
				OnlyA:     concat(parts, func(r *sosr.SetResult) []uint64 { return r.OnlyA }),
				OnlyB:     concat(parts, func(r *sosr.SetResult) []uint64 { return r.OnlyB }),
			}
			// Shards partition the element space, so the merged slices are
			// disjoint; sorting restores the canonical order an unsharded run
			// reports.
			slices.Sort(merged.Recovered)
			slices.Sort(merged.OnlyA)
			slices.Sort(merged.OnlyB)
			return merged
		})
}

// Multiset reconciles a local multiset against the sharded hosted multiset
// `name`. Occurrences follow their element value to a shard (matching
// Coordinator.HostMultiset), so each shard reconciles a complete sub-
// multiset and the merged recovery is the whole logical multiset. diffBound
// bounds the packed-set difference per shard; pass the logical bound, or set
// PerShardDiff to let each shard estimate its own.
func (c *Client) Multiset(ctx context.Context, name string, local []uint64, diffBound int, seed uint64) ([]uint64, *Stats, error) {
	if c.PerShardDiff {
		diffBound = 0
	}
	return reconcile(ctx, c, name, "multiset", seed,
		func(topo *shardmap.Topology) [][]uint64 { return topo.SplitElems(local) },
		func(ctx context.Context, cl *sosrnet.Client, part []uint64, seed uint64) ([]uint64, *sosrnet.NetStats, error) {
			return cl.Multiset(ctx, name, part, diffBound, seed)
		},
		func(parts [][]uint64, _ *Stats) []uint64 {
			merged := slices.Concat(parts...)
			slices.Sort(merged)
			return merged
		})
}

// SetsOfSets reconciles a local parent set against the sharded hosted
// sets-of-sets `name`: child sets split by identity ownership, every shard
// recovers its slice of the server-side parent, and the merged
// Recovered/Added/Removed (in canonical lexicographic child-set order) equal
// an unsharded reconcile of the whole parent. cfg applies per shard;
// cfg.KnownDiff must bound the whole logical difference, or set PerShardDiff
// to let each shard derive its own bound. local is read only during the call,
// in place when every child set is already canonical, and the result shares
// no memory with it.
func (c *Client) SetsOfSets(ctx context.Context, name string, local [][]uint64, cfg sosr.Config) (*sosr.Result, *Stats, error) {
	canon := setutil.CanonicalSetsView(local)
	if c.PerShardDiff {
		cfg.KnownDiff = 0
	}
	return reconcile(ctx, c, name, "sos", cfg.Seed,
		func(topo *shardmap.Topology) [][][]uint64 { return topo.SplitSets(canon) },
		func(ctx context.Context, cl *sosrnet.Client, part [][]uint64, seed uint64) (*sosr.Result, *sosrnet.NetStats, error) {
			sc := cfg
			sc.Seed = seed
			return cl.SetsOfSets(ctx, name, part, sc)
		},
		func(parts []*sosr.Result, stats *Stats) *sosr.Result {
			merged := &sosr.Result{
				Protocol:  parts[0].Protocol,
				Stats:     stats.Protocol,
				Attempts:  stats.Attempts,
				Recovered: concat(parts, func(r *sosr.Result) [][]uint64 { return r.Recovered }),
				Added:     concat(parts, func(r *sosr.Result) [][]uint64 { return r.Added }),
				Removed:   concat(parts, func(r *sosr.Result) [][]uint64 { return r.Removed }),
			}
			setutil.SortSets(merged.Recovered)
			setutil.SortSets(merged.Added)
			setutil.SortSets(merged.Removed)
			return merged
		})
}

// concat joins one field of every shard's result into a slice sized for all
// of them, nil when they are all empty (as appending them one by one leaves
// it).
func concat[R any, T any](parts []R, field func(R) []T) []T {
	n := 0
	for _, p := range parts {
		n += len(field(p))
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, field(p)...)
	}
	return out
}
