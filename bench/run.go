package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sosr/internal/obs"
)

// run.go is the measuring loop: set-up, interleaved untraced rounds, the
// separate traced round, and the arithmetic that turns op outcomes into the
// metrics of spec.go.

type config struct {
	seed      uint64
	workloads []string // in round-robin order
	seconds   float64  // measured seconds per workload, all rounds together
	trace     bool     // also run the traced round and the layer probes
	outDir    string
	// countOps, when positive, overrides every workload's count prefix (the
	// smoke test shortens it).
	countOps int
	log      io.Writer
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Rounds holds the per-round values of a timing metric; Value is their
	// median and -compare reads their quartile spread.
	Rounds []float64 `json:"rounds,omitempty"`
}

type workloadResult struct {
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Wrong     int              `json:"wrong"`
	Correct   bool             `json:"correct"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
	RoundEnv  []roundEnv       `json:"round_env"`
	SelfTime  []*spanStat      `json:"self_time,omitempty"`
}

type result struct {
	Seed       uint64  `json:"seed"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Transport  string  `json:"transport"`
	Clients    int     `json:"clients"`
	Rounds     int     `json:"rounds"`
	RoundSec   float64 `json:"round_seconds"`
	Fsync      string  `json:"fsync"`
	Traced     bool    `json:"traced"`
	// Workloads is keyed by workload name.
	Workloads map[string]*workloadResult `json:"workloads"`
}

// state is one workload while the run is in progress.
type state struct {
	def  *workloadDef
	inst *instance
	next []int // next op index per client

	setups []float64
	rounds struct{ opsPerS, p50, p90, cpuMs, allocs, updP50 []float64 }
	env    []roundEnv
	lat    []float64 // every verified op's latency (ns), for p99
	legs   [numGroups][]float64
	bufs   [][]opOutcome

	attempted, failed, wrong int
	// prefix sums over each client's first countOps ops.
	prefix struct {
		ops, bad, diff, frames, rounds, shardTry, retries int
		wire, overhead                                    int64
	}
	steal      [2]cpuTimes
	tracedOps  float64 // ops_per_s of the traced round
	tracedIDs  []obs.TraceID
	traced     []*span // the traced round's spans, imported from the program's tracer
	layerExtra map[string]float64
}

func (st *state) countOps(cfg *config) int {
	if cfg.countOps > 0 {
		return cfg.countOps
	}
	return st.def.countOps
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile reads the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// setUp builds the workload numSetups times, timing each build with its
// warm-up ops, and keeps the last instance.
func setUp(ctx context.Context, cfg *config, def *workloadDef, tracer *obs.Tracer, times int) (*instance, []float64, error) {
	var inst *instance
	var durs []float64
	for i := 0; i < times; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = setups[def.Name](cfg.seed, filepath.Join(cfg.outDir, fmt.Sprintf("store-%d", os.Getpid())), tracer)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		for k := 0; k < inst.warmOps; k++ {
			for c := 0; c < inst.clients; c++ {
				if out := inst.op(ctx, c, k); out.failed || out.wrong {
					inst.close()
					return nil, nil, fmt.Errorf("%s: warm-up op %d failed (wrong=%v): %v", def.Name, k, out.wrong, out.err)
				}
			}
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return inst, durs, nil
}

// runRound drives the instance's clients for d: each sends its next op only
// after the previous one is verified. A client keeps going past the deadline
// until its count prefix is complete, so count metrics never depend on how
// fast the machine was.
func runRound(ctx context.Context, st *state, d time.Duration, prefix int) {
	inst := st.inst
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < inst.clients; c++ {
		st.bufs[c] = st.bufs[c][:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) || st.next[c] < inst.warmOps+prefix {
				st.bufs[c] = append(st.bufs[c], inst.op(ctx, c, st.next[c]))
				st.next[c]++
			}
		}()
	}
	wg.Wait()
}

// account folds one round's outcomes into the workload's totals and returns
// the round's throughput and latency quantiles.
func (st *state) account(prefix int, traced bool) (opsPerS, p50, p90, updP50 float64, ops int) {
	var lat, upd []float64
	for c, buf := range st.bufs {
		var good int
		var busy time.Duration
		first := st.next[c] - len(buf) - st.inst.warmOps // this round's first op, counted from the end of warm-up
		for i, o := range buf {
			bad := o.failed || o.wrong
			busy += o.latency + o.update
			if !traced {
				st.attempted++
				if bad {
					st.failed++
				}
				if o.wrong {
					st.wrong++
				}
				if first+i < prefix {
					p := &st.prefix
					p.ops++
					if bad {
						p.bad++
					}
					p.diff += o.diff
					p.frames += o.frames
					p.rounds += o.rounds
					p.shardTry += o.shardTry
					p.retries += o.retries
					p.wire += o.wire
					p.overhead += o.overhead
				}
			} else {
				st.tracedIDs = append(st.tracedIDs, o.trace)
			}
			if bad {
				continue
			}
			good++
			lat = append(lat, float64(o.latency.Nanoseconds()))
			if o.update > 0 {
				upd = append(upd, float64(o.update.Nanoseconds()))
			}
			if !traced {
				for g := range o.legs {
					if o.legs[g] > 0 {
						st.legs[g] = append(st.legs[g], float64(o.legs[g].Nanoseconds()))
					}
				}
			}
		}
		ops += len(buf)
		if busy > 0 {
			opsPerS += float64(good) / busy.Seconds()
		}
	}
	sort.Float64s(lat)
	if !traced {
		st.lat = append(st.lat, lat...)
	}
	return opsPerS, quantile(lat, 0.5) / 1e6, quantile(lat, 0.9) / 1e6, median(upd) / 1e6, ops
}

// measureRound runs one untraced round with its noise record around it.
func measureRound(ctx context.Context, cfg *config, st *state, d time.Duration) {
	settled, tw := settle(func(f string, a ...any) { fmt.Fprintf(cfg.log, "warning: "+f+"\n", a...) })
	calib := calibrate()
	var m0, m1 runtime.MemStats
	steal0 := readCPUTimes()
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	runRound(ctx, st, d, st.countOps(cfg))
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	steal1 := readCPUTimes()
	if len(st.env) == 0 {
		st.steal[0] = steal0
	}
	st.steal[1] = steal1

	opsPerS, p50, p90, updP50, ops := st.account(st.countOps(cfg), false)
	r := &st.rounds
	r.opsPerS = append(r.opsPerS, opsPerS)
	r.p50 = append(r.p50, p50)
	r.p90 = append(r.p90, p90)
	r.updP50 = append(r.updP50, updP50)
	r.cpuMs = append(r.cpuMs, float64((cpu1-cpu0).Microseconds())/1e3/float64(max(ops, 1)))
	r.allocs = append(r.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(max(ops, 1)))
	st.env = append(st.env, roundEnv{
		StealRatio: stealRatio(steal0, steal1), TimeWait: tw,
		CalibMs: float64(calib.Microseconds()) / 1e3, SettleMs: float64(settled.Microseconds()) / 1e3,
	})
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers and pools released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// tracedRound runs the workload once more on a fresh instance with the
// program's tracer switched on through its public fields, and imports the
// spans. End-to-end metrics never come from here.
func tracedRound(ctx context.Context, cfg *config, st *state, d time.Duration, rec *recorder) error {
	tracer := &obs.Tracer{SampleRate: 1, MaxTraces: 1 << 17}
	inst, _, err := setUp(ctx, cfg, st.def, tracer, 1)
	if err != nil {
		return err
	}
	defer inst.close()
	measured := st.inst
	st.inst = inst
	defer func() { st.inst = measured }()
	saved := st.next
	st.next = make([]int, inst.clients)
	for c := range st.next {
		st.next[c] = inst.warmOps
	}
	defer func() { st.next = saved }()

	runtime.GC()
	runRound(ctx, st, d, 0)
	st.tracedOps, _, _, _, _ = st.account(0, true)
	time.Sleep(100 * time.Millisecond) // a server ends its session span after the client's op returned
	from := len(rec.spans)
	for _, id := range st.tracedIDs {
		rec.importTrace(tracer.Get(id))
	}
	st.traced = rec.spans[from:]
	return nil
}

// spans returns the workload's traced ops (the first maxOps of them, all if
// maxOps is 0) followed by the spans of its decomposed op.
func (st *state) spans(rec *recorder, maxOps int) []*span {
	keep := map[string]bool{}
	for i, id := range st.tracedIDs {
		if maxOps > 0 && i == maxOps {
			break
		}
		keep[id.String()] = true
	}
	var out []*span
	for _, s := range st.traced {
		if keep[s.Trace] {
			out = append(out, s)
		}
	}
	decomposed := map[string]bool{}
	for _, s := range rec.spans {
		if s.Name == "decomposed/"+st.def.Name {
			decomposed[s.Trace] = true
		}
		if decomposed[s.Trace] { // a root is recorded before its children
			out = append(out, s)
		}
	}
	return out
}

const traceFileOps = 200 // ops whose spans trace-<workload>.json keeps

// finish turns a workload's accumulated state into its reported metrics and
// tears its instance down. live_heap_mb is what that teardown releases, so
// the other workloads' instances and the benchmark's own buffers cancel out.
func (st *state) finish(cfg *config, probes map[string]float64, stats map[string]*spanStat) *workloadResult {
	heapBefore := heapMB()
	res := &workloadResult{
		Attempted: st.attempted, Failed: st.failed, Wrong: st.wrong, Correct: st.wrong == 0,
		EndToEnd: map[string]value{}, PerLayer: map[string]value{}, RoundEnv: st.env,
	}
	p := &st.prefix
	perOp := func(x float64) float64 { return x / float64(max(p.ops, 1)) }
	e2e := map[string]value{
		"setup_s":             {Value: median(st.setups), Rounds: st.setups},
		"ops_per_s":           {Value: median(st.rounds.opsPerS), Rounds: st.rounds.opsPerS},
		"op_p50_ms":           {Value: median(st.rounds.p50), Rounds: st.rounds.p50},
		"op_p90_ms":           {Value: median(st.rounds.p90), Rounds: st.rounds.p90},
		"cpu_ms_per_op":       {Value: median(st.rounds.cpuMs), Rounds: st.rounds.cpuMs},
		"allocs_per_op":       {Value: median(st.rounds.allocs), Rounds: st.rounds.allocs},
		"wire_bytes_per_diff": {Value: float64(p.wire) / float64(max(p.diff, 1))},
	}
	for _, d := range endToEnd {
		v := e2e[d.Name]
		v.Unit = d.Unit
		res.EndToEnd[d.Name] = v
	}

	m := map[string]float64{}
	for k, v := range probes {
		m[k] = v
	}
	for k, v := range st.layerExtra {
		m[k] = v
	}
	m["fail_ratio"] = perOp(float64(p.bad))
	m["update_p50_ms"] = median(st.rounds.updP50)
	groups := [numGroups]string{"setrecon.session_ms", "core.session_ms", "graphrecon.session_ms", "forest.session_ms"}
	for g, name := range groups {
		m[name] = median(st.legs[g]) / 1e6
	}
	if st.def.Name != "cold_kinds_tcp" { // every op of the other workloads is one sets-of-sets reconcile
		m["core.session_ms"] = median(st.rounds.p50)
	}
	server, client := st.inst.cacheStats()
	m["enccache.server_hit_ratio"] = hitRatio(server.Hits, server.Misses+server.Shared)
	m["enccache.client_hit_ratio"] = hitRatio(client.Hits, client.Misses+client.Shared)
	m["enccache.resident_mb"] = float64(server.Bytes+client.Bytes) / (1 << 20)
	m["wire.overhead_bytes_per_op"] = perOp(float64(p.overhead))
	m["wire.frames_per_op"] = perOp(float64(p.frames))
	m["sosrnet.rounds_per_op"] = perOp(float64(p.rounds))
	m["sosrnet.retries_per_op"] = perOp(float64(p.retries))
	for _, reg := range st.inst.registries {
		m["sosrnet.rejects"] += promSample(reg)["sosr_handshake_rejects_total"]
	}
	sorted := append([]float64(nil), st.lat...)
	sort.Float64s(sorted)
	m["sosrnet.op_p99_ms"] = quantile(sorted, 0.99) / 1e6
	p50us := median(st.rounds.p50) * 1e3
	if st.def.Name == "hot_sos_tcp" && cfg.trace {
		m["sosrnet.session_overhead_us"] = p50us - m["core.cascade_decode_cached_us"] - m["enccache.hit_us"]
	}
	m["sosrshard.attempts_per_op"] = perOp(float64(p.shardTry))
	if direct, ok := m["sosrshard.direct_session_ns"]; ok {
		m["sosrshard.fanout_overhead_us"] = p50us - direct/1e3
	}
	if stats != nil {
		total := 0.0
		if op := stats["bench/op"]; op != nil {
			total = op.TotalMs
		}
		for _, stage := range []string{"hello", "estimate", "encode", "transfer", "decode"} {
			if s := stats[stage]; s != nil && total > 0 {
				m["sosrnet.stage_share."+stage] = s.TotalMs / total
			}
		}
		// The public update call takes no span, so the write path's two
		// stages come from the benchmark's own spans: the traced update
		// around the call, and the decomposed op's WAL append.
		if op, upd := medianNs(stats, "bench/op"), medianNs(stats, "bench/update"); op > 0 && upd > 0 {
			wal := min(probes["store.append_p50_us"]*1e3, upd)
			m["sosrnet.stage_share.store-append"] = wal / op
			m["sosrnet.stage_share.commit"] = (upd - wal) / op
		}
		if base := median(st.rounds.opsPerS); base > 0 {
			m["obs.trace_overhead_ratio"] = st.tracedOps / base
		}
	}
	m["env.nproc"] = float64(runtime.NumCPU())
	m["env.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["env.steal_ratio"] = stealRatio(st.steal[0], st.steal[1])
	var calib []float64
	for _, e := range st.env {
		m["env.timewait_sockets"] = max(m["env.timewait_sockets"], float64(e.TimeWait))
		calib = append(calib, e.CalibMs)
	}
	m["env.calib_ms"] = median(calib)
	m["env.peak_rss_mb"] = peakRSSMB()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["env.gc_cpu_ratio"] = ms.GCCPUFraction
	for _, d := range perLayer {
		res.PerLayer[d.Name] = value{Value: finite(m[d.Name]), Unit: d.Unit}
	}
	if stats != nil {
		res.SelfTime = sortedStats(stats)
	}

	st.inst.close()
	st.inst = nil
	res.EndToEnd["live_heap_mb"] = value{Value: heapBefore - heapMB(), Unit: "MB"}
	return res
}

func hitRatio(hits, rest uint64) float64 {
	if hits+rest == 0 {
		return 0
	}
	return float64(hits) / float64(hits+rest)
}

func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// promSample reads a registry the way a scraper would: every sample by its
// rendered name (labels included), plus each family's sum over its labels
// under the bare name.
func promSample(reg *obs.Registry) map[string]float64 {
	var b strings.Builder
	_ = reg.WriteProm(&b) // a strings.Builder cannot fail a write
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[cut+1:], &v); err != nil {
			continue
		}
		out[line[:cut]] = v
		if brace := strings.IndexByte(line, '{'); brace > 0 && brace < cut {
			out[line[:brace]] += v
		}
	}
	return out
}

// execute runs the configured workloads and returns everything measured.
func execute(ctx context.Context, cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	roundLen := time.Duration(cfg.seconds / numRounds * float64(time.Second))
	if cfg.trace { // the traced round is one more share of the same budget
		roundLen = time.Duration(cfg.seconds / (numRounds + 1) * float64(time.Second))
	}
	res := &result{
		Seed: cfg.seed, Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Transport: "single process, loopback TCP, closed loop", Clients: numClients,
		Rounds: numRounds, RoundSec: roundLen.Seconds(), Fsync: "on (churn_sos_disk WAL and snapshots)",
		Traced: cfg.trace, Workloads: map[string]*workloadResult{},
	}
	var states []*state
	defer func() {
		for _, st := range states {
			if st.inst != nil {
				st.inst.close()
			}
		}
	}()
	for _, name := range cfg.workloads {
		def := findWorkload(name)
		if def == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		inst, durs, err := setUp(ctx, cfg, def, nil, numSetups)
		if err != nil {
			return nil, err
		}
		st := &state{def: def, inst: inst, setups: durs, next: make([]int, inst.clients), bufs: make([][]opOutcome, inst.clients)}
		for c := range st.next {
			st.next[c] = inst.warmOps
			st.bufs[c] = make([]opOutcome, 0, 1<<14)
		}
		states = append(states, st)
	}
	// Rounds interleave the workloads, so a burst of co-tenant noise hits
	// all of them and not one.
	for r := 0; r < numRounds; r++ {
		for _, st := range states {
			measureRound(ctx, cfg, st, roundLen)
		}
	}

	rec := newRecorder()
	var probes map[string]float64
	stats := map[string]map[string]*spanStat{}
	if cfg.trace {
		for _, st := range states {
			if st.inst.layer != nil {
				st.layerExtra = map[string]float64{}
				if err := st.inst.layer(ctx, st.layerExtra); err != nil {
					return nil, fmt.Errorf("%s: %w", st.def.Name, err)
				}
			}
		}
		var err error
		if probes, err = runProbes(ctx, cfg.seed, cfg.outDir, rec); err != nil {
			return nil, err
		}
		for _, st := range states {
			if err := tracedRound(ctx, cfg, st, roundLen, rec); err != nil {
				return nil, err
			}
			stats[st.def.Name] = selfTimes(st.spans(rec, 0))
		}
	}

	var fatal error
	for _, st := range states {
		wr := st.finish(cfg, probes, stats[st.def.Name])
		res.Workloads[st.def.Name] = wr
		if wr.Attempted > 0 && wr.Failed == wr.Attempted {
			fatal = errors.Join(fatal, fmt.Errorf("%s: every op failed", st.def.Name))
		}
		if cfg.trace {
			if err := writeTrace(cfg, st, rec, wr); err != nil {
				return nil, err
			}
		}
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "result.json"), res); err != nil {
		return nil, err
	}
	return res, fatal
}

// writeTrace writes trace-<workload>.json: the spans of the first
// traceFileOps traced ops and of the workload's decomposed op.
func writeTrace(cfg *config, st *state, rec *recorder, wr *workloadResult) error {
	tf := &traceFile{
		Workload: st.def.Name, OpsTraced: len(st.tracedIDs), OpsWritten: min(len(st.tracedIDs), traceFileOps),
		SelfTime: wr.SelfTime, Spans: st.spans(rec, traceFileOps),
	}
	return writeJSON(filepath.Join(cfg.outDir, "trace-"+st.def.Name+".json"), tf)
}
