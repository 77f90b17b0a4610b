package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/forest"
	"sosr/internal/graph"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/obs"
	"sosr/internal/prng"
	"sosr/internal/setrecon"
	"sosr/internal/workload"
	"sosr/sosrnet"
	"sosr/sosrshard"
)

// The -json perf suite measures the compute hot paths (encode and decode for
// every dataset family, plus the raw IBLT insert) and the end-to-end sosrnet
// loopback throughput. Output is machine-readable so successive runs can be
// committed (BENCH_baseline.json, BENCH_pr4.json, ...) and diffed; see the
// README "Performance" section for how to regenerate them.

// perfBench is one benchmark row of the JSON report.
type perfBench struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// SessionsPerSec is set only for the net throughput rows.
	SessionsPerSec float64 `json:"sessions_per_sec,omitempty"`
	// P50Ms/P95Ms/P99Ms are per-session latency quantiles (server-side "done"
	// stage), read from the obs histograms; set only for the net rows.
	P50Ms float64 `json:"p50_ms,omitempty"`
	P95Ms float64 `json:"p95_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
	// BoundRatioMean/BoundRatioMax audit the paper's communication envelope:
	// Alice's payload bytes divided by (d̂ differing keys × the table-cell
	// bytes of one key, core.CellBytes) — the same quantity for every
	// protocol. Set for the encode rows and, from the servers'
	// sosr_bound_ratio histogram, for the session rows. (Up to BENCH_pr10.json
	// the columns held bytes ÷ d̂.)
	BoundRatioMean float64 `json:"bound_ratio_mean,omitempty"`
	BoundRatioMax  float64 `json:"bound_ratio_max,omitempty"`
}

// boundRatio fills the envelope columns for a single encoding of known size.
func (pb *perfBench) boundRatio(bytes, dHat, cellBytes int) {
	if dHat <= 0 || cellBytes <= 0 {
		return
	}
	r := float64(bytes) / (float64(dHat) * float64(cellBytes))
	pb.BoundRatioMean, pb.BoundRatioMax = r, r
}

// boundRatios fills the envelope columns from a registry's sosr_bound_ratio
// histogram (every server session of the run).
func (pb *perfBench) boundRatios(reg *obs.Registry) {
	h := reg.GetHistogram("sosr_bound_ratio")
	if h == nil || h.Count() == 0 {
		return
	}
	pb.BoundRatioMean = h.Sum() / float64(h.Count())
	pb.BoundRatioMax = h.Quantile(1)
}

// sessionQuantiles fills the latency-quantile columns from a registry's
// whole-session stage histogram (merged across all servers sharing reg).
func (pb *perfBench) sessionQuantiles(reg *obs.Registry) {
	h := reg.GetHistogram("sosr_stage_seconds", "done")
	if h == nil || h.Count() == 0 {
		return
	}
	pb.P50Ms = h.Quantile(0.50) * 1000
	pb.P95Ms = h.Quantile(0.95) * 1000
	pb.P99Ms = h.Quantile(0.99) * 1000
}

// perfReport is the top-level JSON document.
type perfReport struct {
	Suite      string      `json:"suite"`
	Go         string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Benchmarks []perfBench `json:"benchmarks"`
}

func perfRow(name string, f func(b *testing.B)) perfBench {
	r := testing.Benchmark(f)
	return perfBench{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// perfJSON runs the suite and writes the JSON report to w.
func perfJSON(w io.Writer) error {
	report := perfReport{
		Suite:      "sosr-perf",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	coins := hashing.NewCoins(42)

	// --- raw IBLT hot loop ---
	report.Benchmarks = append(report.Benchmarks, perfRow("iblt/insert-uint64", func(b *testing.B) {
		t := iblt.NewUint64(1024, 0, 1)
		src := prng.New(2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t.InsertUint64(src.Uint64())
		}
	}))
	report.Benchmarks = append(report.Benchmarks, perfRow("iblt/decode-256", func(b *testing.B) {
		src := prng.New(3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			t := iblt.NewUint64(iblt.CellsFor(256), 0, src.Uint64())
			for k := 0; k < 256; k++ {
				t.InsertUint64(src.Uint64())
			}
			b.StartTimer()
			_, _, _ = t.DecodeUint64()
		}
	}))

	// --- one-level sets (Corollary 2.2) ---
	setAlice := make([]uint64, 0, 20000)
	for x := uint64(0); x < 20000; x++ {
		setAlice = append(setAlice, x*3+1)
	}
	setBob := append(append([]uint64{}, setAlice[32:]...), 1_000_001, 1_000_004, 1_000_007)
	setMsg := setrecon.BuildIBLTMsg(coins, setAlice, 64)
	setEncode := perfRow("set/encode-d64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			setrecon.BuildIBLTMsg(coins, setAlice, 64)
		}
	})
	setEncode.boundRatio(len(setMsg), 64, 8+4+8)
	report.Benchmarks = append(report.Benchmarks, setEncode)
	report.Benchmarks = append(report.Benchmarks, perfRow("set/decode-d64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := setrecon.ApplyIBLTMsg(coins, setMsg, setBob); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// --- sets of sets (cascade / nested one-round payloads) ---
	sosAlice, sosBob := workload.PlantedSetsOfSets(17, 200, 10, 1<<32, 16)
	p := core.Params{S: 200, H: 16, U: 1 << 32}
	if np, err := p.Normalized(); err == nil {
		p = np
	}
	for _, cfg := range []struct {
		name string
		kind core.DigestKind
		d    int
	}{
		{"sos/cascade", core.DigestCascade, 32},
		{"sos/nested", core.DigestNested, 16},
	} {
		dHat := core.DHat(cfg.d, p.S)
		msg, err := core.AliceMsg(cfg.kind, coins, sosAlice, p, cfg.d, dHat)
		if err != nil {
			return fmt.Errorf("%s encode: %w", cfg.name, err)
		}
		if _, err := core.ApplyMsg(cfg.kind, coins, msg, sosBob, p, cfg.d, dHat); err != nil {
			return fmt.Errorf("%s decode: %w", cfg.name, err)
		}
		encRow := perfRow(cfg.name+"-encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.AliceMsg(cfg.kind, coins, sosAlice, p, cfg.d, dHat); err != nil {
					b.Fatal(err)
				}
			}
		})
		encRow.boundRatio(len(msg), dHat, core.CellBytes(cfg.kind, p, cfg.d))
		report.Benchmarks = append(report.Benchmarks, encRow)
		report.Benchmarks = append(report.Benchmarks, perfRow(cfg.name+"-decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ApplyMsg(cfg.kind, coins, msg, sosBob, p, cfg.d, dHat); err != nil {
					b.Fatal(err)
				}
			}
		}))
		// Cached Bob subtraction: the per-session decode cost once the client's
		// sketch cache (or the server pull path) has memoized Bob's encodings.
		sk, err := core.NewBobSketch(cfg.kind, coins, sosBob, p, cfg.d, dHat)
		if err != nil {
			return fmt.Errorf("%s sketch: %w", cfg.name, err)
		}
		report.Benchmarks = append(report.Benchmarks, perfRow(cfg.name+"-decode-cached", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ApplyMsgCached(cfg.kind, coins, msg, sosBob, p, cfg.d, dHat, sk); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// --- graphs (degree-ordering scheme) ---
	gsrc := prng.New(11)
	gBase, gh, err := graphrecon.PlantedSeparated(480, 2, 0.4, gsrc)
	if err != nil {
		return fmt.Errorf("graph workload: %w", err)
	}
	ga, _ := graph.Perturb(gBase, 1, gsrc)
	gb, _ := graph.Perturb(gBase, 1, gsrc)
	gp := graphrecon.DegreeOrderParams{H: gh, D: 2}
	gmsgs, err := graphrecon.DegreeOrderAlice(coins, ga, gp)
	if err != nil {
		return fmt.Errorf("graph encode: %w", err)
	}
	report.Benchmarks = append(report.Benchmarks, perfRow("graph/degree-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graphrecon.DegreeOrderAlice(coins, ga, gp); err != nil {
				b.Fatal(err)
			}
		}
	}))
	report.Benchmarks = append(report.Benchmarks, perfRow("graph/degree-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graphrecon.DegreeOrderApply(coins, gb, gp, gmsgs.Sig, gmsgs.Edges); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// --- forests ---
	fsrc := prng.New(51)
	fa := forest.Random(600, 0.2, fsrc)
	fb := forest.Perturb(fa, 3, fsrc)
	sigma := fa.Depth()
	if s := fb.Depth(); s > sigma {
		sigma = s
	}
	rp, fparams := forest.Plan(forest.Measure(fa), forest.Measure(fb), forest.ReconParams{Sigma: sigma, D: 3})
	sig, meta, err := forest.AliceMsg(coins, fa, rp, fparams)
	if err != nil {
		return fmt.Errorf("forest encode: %w", err)
	}
	report.Benchmarks = append(report.Benchmarks, perfRow("forest/encode-d3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := forest.AliceMsg(coins, fa, rp, fparams); err != nil {
				b.Fatal(err)
			}
		}
	}))
	report.Benchmarks = append(report.Benchmarks, perfRow("forest/decode-d3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := forest.Apply(coins, fb, rp, fparams, sig, meta); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// --- sosrnet loopback throughput on a hot dataset ---
	for _, clients := range []int{1, 32} {
		row, err := netSessions(sosAlice, sosBob, clients, 3*time.Second)
		if err != nil {
			return err
		}
		report.Benchmarks = append(report.Benchmarks, row)
	}

	// --- sharded fan-out throughput (3 loopback shards per reconcile) ---
	for _, clients := range []int{1, 8} {
		row, err := shardedSessions(sosAlice, sosBob, 3, clients, 3*time.Second)
		if err != nil {
			return err
		}
		report.Benchmarks = append(report.Benchmarks, row)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&report)
}

// netSessions measures end-to-end sessions/sec over loopback TCP: `clients`
// concurrent connections repeatedly reconciling the same hosted sets-of-sets
// dataset (the hot-dataset regime the server-side encode cache targets).
func netSessions(alice, bob [][]uint64, clients int, dur time.Duration) (perfBench, error) {
	srv := sosrnet.NewServer()
	srv.Obs = obs.NewRegistry()
	if err := srv.HostSetsOfSets("docs", alice); err != nil {
		return perfBench{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return perfBench{}, err
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()
	cfg := sosr.Config{Seed: 7, Protocol: sosr.ProtocolCascade, KnownDiff: 32}

	// Warm up (connection setup, and at PR 4 the server-side encode cache).
	warm := sosrnet.Dial(addr)
	defer warm.Close()
	if _, _, err := warm.SetsOfSets(context.Background(), "docs", bob, cfg); err != nil {
		return perfBench{}, fmt.Errorf("warmup session: %w", err)
	}

	var sessions atomic.Int64
	var failed atomic.Int64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sosrnet.Dial(addr)
			defer c.Close()
			for time.Now().Before(deadline) {
				if _, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg); err != nil {
					failed.Add(1)
					return
				}
				sessions.Add(1)
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	if failed.Load() != 0 {
		return perfBench{}, fmt.Errorf("net/sessions-%d: %d sessions failed", clients, failed.Load())
	}
	n := sessions.Load()
	row := perfBench{
		Name:           fmt.Sprintf("net/sessions-%dclients", clients),
		N:              int(n),
		NsPerOp:        float64(elapsed.Nanoseconds()) / float64(max(n, 1)),
		SessionsPerSec: float64(n) / elapsed.Seconds(),
	}
	row.sessionQuantiles(srv.Registry())
	row.boundRatios(srv.Registry())
	return row, nil
}

// shardedSessions measures whole fan-out reconciles/sec: `clients`
// concurrent logical clients, each reconciling the sharded hosted dataset
// across `shards` loopback sosrd shard instances per operation.
func shardedSessions(alice, bob [][]uint64, shards, clients int, dur time.Duration) (perfBench, error) {
	addrs := make([]string, shards)
	servers := make([]*sosrnet.Server, shards)
	// One registry across all shard servers: family registration is
	// idempotent, so the per-shard-session "done" histograms merge and the
	// quantiles cover every shard session of the run.
	reg := obs.NewRegistry()
	for i := range servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return perfBench{}, err
		}
		servers[i] = sosrnet.NewServer()
		servers[i].Obs = reg
		addrs[i] = ln.Addr().String()
		go servers[i].Serve(ln)
		defer servers[i].Close()
	}
	topo, err := sosrshard.SingleReplica(1, addrs)
	if err != nil {
		return perfBench{}, err
	}
	groups := make([][]*sosrnet.Server, len(servers))
	for i, srv := range servers {
		groups[i] = []*sosrnet.Server{srv}
	}
	co, err := sosrshard.NewCoordinator(topo, groups)
	if err != nil {
		return perfBench{}, err
	}
	if err := co.HostSetsOfSets("docs", alice); err != nil {
		return perfBench{}, err
	}
	c, err := sosrshard.Dial(topo)
	if err != nil {
		return perfBench{}, err
	}
	defer c.Close()
	cfg := sosr.Config{Seed: 7, Protocol: sosr.ProtocolCascade, KnownDiff: 32}
	if _, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg); err != nil {
		return perfBench{}, fmt.Errorf("sharded warmup: %w", err)
	}

	var fanouts atomic.Int64
	var failed atomic.Int64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg); err != nil {
					failed.Add(1)
					return
				}
				fanouts.Add(1)
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	if failed.Load() != 0 {
		return perfBench{}, fmt.Errorf("shard/reconcile-%dshards-%dclients: %d fan-outs failed", shards, clients, failed.Load())
	}
	n := fanouts.Load()
	row := perfBench{
		Name:           fmt.Sprintf("shard/reconcile-%dshards-%dclients", shards, clients),
		N:              int(n),
		NsPerOp:        float64(elapsed.Nanoseconds()) / float64(max(n, 1)),
		SessionsPerSec: float64(n) / elapsed.Seconds(),
	}
	row.sessionQuantiles(reg)
	row.boundRatios(reg)
	return row, nil
}

// runPerfJSON is the -json entry point.
func runPerfJSON() {
	if err := perfJSON(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perf suite: %v\n", err)
		os.Exit(1)
	}
}
