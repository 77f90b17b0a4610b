package sosrnet

import (
	"strconv"

	"sosr/internal/obs"
)

// Metric names exported by a Server's registry. Session counters and stage
// histograms are written once per session, when report closes its books;
// cache and dataset series are collectors, computed at scrape time from
// state that already has an owner and a lock. A stage value is the session's
// total time in that stage, read off the same two clock readings as its
// spans (sessionRecord.begin); the stages nest: transfer holds estimate and
// encode, and done holds them all.
//
//	sosr_sessions_started_total{kind}          sessions past a valid handshake
//	sosr_sessions_total{kind,proto,status}     finished sessions (ok|error|client_failed)
//	sosr_handshake_rejects_total{reason}       sessions dropped before serving
//	sosr_sessions_active                       sessions currently being served
//	sosr_connections{state}                    accepted connections: active (in a
//	                                           session) or idle (between two)
//	sosr_wire_bytes_total{proto,dir}           connection bytes, framing included
//	sosr_protocol_bytes_total{proto,party}     protocol-frame payload bytes
//	sosr_stage_seconds{stage}                  hello|estimate|encode|transfer|done
//	                                           time per session
//	sosr_enccache_events_total{event}          hit|miss|shared|evict|promote
//	sosr_enccache_bytes / sosr_enccache_entries
//	sosr_dataset_version{dataset,shard}        copy-on-write version counter
//	sosr_dataset_items{dataset,shard}          elements/children/edges/nodes hosted
//	sosr_bound_ratio                           server payload ÷ (d̂ keys × cell bytes) per session
type serverMetrics struct {
	started  *obs.CounterVec
	sessions *obs.CounterVec
	rejects  *obs.CounterVec
	wire     *obs.CounterVec
	protoB   *obs.CounterVec
	stage    *obs.HistogramVec
	active   *obs.Gauge

	// boundRatio audits the paper's O(d̂) communication promise on every
	// session: the server's payload bytes divided by what the bound lets
	// them scale with, d̂ differing keys times the table-cell bytes of one
	// key under the session's plan. Independent of n by Theorems 3.3–3.9 and
	// of the family by construction — a drifting ratio means a protocol
	// regression, not a bigger dataset or a wider key.
	boundRatio *obs.Histogram

	// Stage children, resolved once so the session path is an atomic add.
	stages [len(stageNames)]*obs.Histogram
}

// Session stages: the label values of sosr_stage_seconds{stage} and the names
// of the stage spans. done, the whole session from its start, has no span of
// its own; report times it.
const (
	stageHello = iota
	stageEstimate
	stageEncode
	stageTransfer
	stageDone
)

var stageNames = [...]string{"hello", "estimate", "encode", "transfer", "done"}

// Handshake-reject reasons (sosr_handshake_rejects_total{reason=...}).
const (
	rejectHelloTimeout   = "hello_timeout"
	rejectHelloIO        = "hello_io"
	rejectMalformed      = "malformed"
	rejectVersion        = "version"
	rejectBound          = "bound"
	rejectUnknownDataset = "unknown_dataset"
	rejectMisroute       = "misroute"
	rejectStaleEpoch     = "stale_epoch"
	rejectBusy           = "busy"
	rejectInstance       = "invalid_instance"
)

// metrics lazily registers the server's families on its registry (creating a
// private registry when the caller did not supply one). Registration is
// idempotent at the obs layer, so several servers may share one Registry —
// their series merge, which is exactly what in-process shard instances want
// when one scrape should cover the whole logical dataset. Never called with
// s.mu held: registration takes registry locks that collectors may invert.
func (s *Server) metrics() *serverMetrics {
	s.obsOnce.Do(func() {
		if s.Obs == nil {
			s.Obs = obs.NewRegistry()
		}
		r := s.Obs
		m := &serverMetrics{
			started: r.Counter("sosr_sessions_started_total",
				"Sessions that presented a valid handshake, by dataset kind.", "kind"),
			sessions: r.Counter("sosr_sessions_total",
				"Finished sessions by dataset kind, protocol variant, and outcome.", "kind", "proto", "status"),
			rejects: r.Counter("sosr_handshake_rejects_total",
				"Sessions dropped before serving, by rejection reason.", "reason"),
			wire: r.Counter("sosr_wire_bytes_total",
				"Connection bytes moved, framing included, by protocol variant and direction.", "proto", "dir"),
			protoB: r.Counter("sosr_protocol_bytes_total",
				"Protocol-frame payload bytes by variant and sending party.", "proto", "party"),
			stage: r.Histogram("sosr_stage_seconds",
				"Time per session by stage: hello (accept to validated handshake), estimate (Bob's probe), encode (payload builds), transfer (serving; holds estimate and encode), done (whole session).",
				nil, "stage"),
			active: r.Gauge("sosr_sessions_active",
				"Sessions currently being served (a fresh connection counts from accept, a reused one from its hello).").With(),
			boundRatio: r.Histogram("sosr_bound_ratio",
				"Server payload bytes divided by (differing keys the session's bound allows × table-cell bytes of one key) — the paper's O(d̂) communication promise, audited per session; the cells-per-key slack of a healthy encoder, 2 to 20.",
				boundRatioBuckets).With(),
		}
		for st, name := range stageNames {
			m.stages[st] = m.stage.With(name)
		}

		r.CounterFunc("sosr_enccache_events_total",
			"Encoding-cache lookups by outcome: hit, miss, shared (coalesced onto an in-flight build), evict, promote (a key asked for again after its payload was built).",
			[]string{"event"}, func(emit func(v float64, lvs ...string)) {
				st := s.CacheStats()
				emit(float64(st.Hits), "hit")
				emit(float64(st.Misses), "miss")
				emit(float64(st.Shared), "shared")
				emit(float64(st.Evictions), "evict")
				emit(float64(st.Promotions), "promote")
			})
		r.GaugeFunc("sosr_enccache_bytes", "Resident encoding-cache payload bytes.",
			nil, func(emit func(v float64, lvs ...string)) {
				emit(float64(s.CacheStats().Bytes))
			})
		r.GaugeFunc("sosr_enccache_entries", "Resident encoding-cache entries.",
			nil, func(emit func(v float64, lvs ...string)) {
				emit(float64(s.CacheStats().Entries))
			})
		r.GaugeFunc("sosr_connections",
			"Accepted connections by state: active (carrying a session) or idle (kept by the client between two sessions, holding no session slot).",
			[]string{"state"}, func(emit func(v float64, lvs ...string)) {
				s.mu.Lock()
				idle, all := len(s.idle), len(s.conns)
				s.mu.Unlock()
				emit(float64(idle), "idle")
				emit(float64(all-idle), "active")
			})
		r.GaugeFunc("sosr_dataset_version",
			"Current copy-on-write version of each hosted dataset (0 until the first update).",
			[]string{"dataset", "shard"}, func(emit func(v float64, lvs ...string)) {
				for _, di := range s.Datasets() {
					emit(float64(di.Version), di.Name, shardLabel(di.ShardCount, di.ShardIndex))
				}
			})
		r.GaugeFunc("sosr_dataset_items",
			"Hosted size of each dataset: elements, child sets, edges, or nodes by kind.",
			[]string{"dataset", "shard"}, func(emit func(v float64, lvs ...string)) {
				for _, di := range s.Datasets() {
					emit(float64(di.Items), di.Name, shardLabel(di.ShardCount, di.ShardIndex))
				}
			})
		s.met = m
	})
	return s.met
}

// shardLabel renders the shard label value: the shard index for sharded
// datasets, empty for unsharded ones.
func shardLabel(count, index int) string {
	if count == 0 {
		return ""
	}
	return strconv.Itoa(index)
}

// Registry returns the server's metrics registry, creating one (and
// registering every family) on first use. Expose it via OpsHandler, or mount
// Registry().Handler() on your own mux. Assign a shared registry to Obs
// before the first session to merge several servers into one scrape.
func (s *Server) Registry() *obs.Registry {
	s.metrics()
	return s.Obs
}

// Client-side metric names, registered on Client.Obs when set:
//
//	sosr_client_connections_total{event}   dial (a connection was opened), reuse
//	                                       (a session ran on a parked one),
//	                                       stale_redial (a parked one failed
//	                                       before the session's first frame and
//	                                       the session was replayed on a dial)
//	sosr_decodecache_events_total{event}   sketch-cache lookups (hit|patch|miss)
//	sosr_peel_iterations                   peel loop iterations per decode
type clientMetrics struct {
	conns [numConnEvents]*obs.Counter
	hit   *obs.Counter
	patch *obs.Counter
	miss  *obs.Counter
	peels *obs.Histogram
}

// Connection events (sosr_client_connections_total{event=...}).
const (
	connDial = iota
	connReuse
	connStaleRedial
	numConnEvents
)

var connEventNames = [numConnEvents]string{"dial", "reuse", "stale_redial"}

// peelBuckets spans the observed peel-iteration range: tens for small
// cascades through thousands for naive decodes of large parents.
var peelBuckets = []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// boundRatioBuckets resolve the healthy range — 1 (a charpoly session) through
// 2–5 (IBLT families at d̂ ≥ 8) to ~20 (d̂ = 1 on the 16-cell table floor) —
// and leave room above DefaultBoundEnvelope to see how far an outlier went.
var boundRatioBuckets = []float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 512, 2048}

// metrics lazily registers the client's families on Obs; nil when the caller
// supplied no registry (every observation is then skipped).
func (c *Client) metrics() *clientMetrics {
	if c.Obs == nil {
		return nil
	}
	c.metOnce.Do(func() {
		events := c.Obs.Counter("sosr_decodecache_events_total",
			"Bob-sketch cache lookups by outcome: hit (subtracted the resident aggregate), patch (derived from the resident one by re-encoding only the changed children, and replaced it), miss (encoded every child and cached).", "event")
		conns := c.Obs.Counter("sosr_client_connections_total",
			"Client connection events: dial (opened), reuse (a session ran on a parked connection), stale_redial (a parked connection failed before the session's first frame; the session was replayed on a fresh one).", "event")
		c.met = &clientMetrics{
			hit:   events.With(sketchHit),
			patch: events.With(sketchPatch),
			miss:  events.With("miss"),
			peels: c.Obs.Histogram("sosr_peel_iterations",
				"IBLT peel-loop iterations per successful decode.", peelBuckets).With(),
		}
		for ev, name := range connEventNames {
			c.met.conns[ev] = conns.With(name)
		}
	})
	return c.met
}

// countConn records one connection event.
func (c *Client) countConn(event int) {
	if m := c.metrics(); m != nil {
		m.conns[event].Inc()
	}
}

// observeDecodeCache records one sketch-cache lookup outcome.
func (c *Client) observeDecodeCache(outcome string) {
	m := c.metrics()
	if m == nil {
		return
	}
	switch outcome {
	case sketchHit:
		m.hit.Inc()
	case sketchPatch:
		m.patch.Inc()
	default:
		m.miss.Inc()
	}
}

// observePeels records one successful decode's peel-iteration count.
func (c *Client) observePeels(n int) {
	if m := c.metrics(); m != nil {
		m.peels.Observe(float64(n))
	}
}
