// Command sosrd is the sosr reconciliation daemon and its client. It has two
// roles and one body for each: serve hosts named datasets (any of the five
// kinds) loaded from a JSON file or generated as a demo workload and serves
// concurrent one-way reconciliation sessions over TCP; sync reconciles a local
// replica against a hosted dataset, printing the same protocol Stats the
// in-process library reports plus the measured wire bytes. Either takes -shards
// to do its job for a partitioned dataset; shard-serve and shard-sync are the
// same two bodies with -shards required.
//
//	sosrd serve -addr :7075 -demo                 # host generated demo datasets
//	sosrd serve -addr :7075 -data datasets.json   # host datasets from a file
//	sosrd serve -config sosrd.json                # the same knobs, and datasets, from a file
//	sosrd sync  -addr host:7075 -name docs -kind sos -protocol cascade -d 24 -replica replica.json
//	sosrd demo                                    # serve+sync in one process over loopback
//
// With -data-dir the hosted datasets are durable: hosting writes an atomic
// checksummed snapshot, every update is fsynced to a per-dataset WAL before
// it is acknowledged, and a restart — graceful or kill -9 — recovers the
// exact pre-crash state, replaying the WAL suffix and truncating a torn
// tail. SIGTERM snapshots everything so the next boot replays nothing:
//
//	sosrd serve -addr :7075 -data datasets.json -data-dir /var/lib/sosrd
//	sosrd serve -addr :7075 -data-dir /var/lib/sosrd   # later boots: state comes from the store
//
// Serving subcommands take an optional private ops listener exposing
// Prometheus metrics, health and readiness, dataset summaries with content
// hashes, remote admin (host/update/drop/snapshot), and pprof:
//
//	sosrd serve -addr :7075 -demo -ops-addr 127.0.0.1:7076
//	curl http://127.0.0.1:7076/metrics
//	curl -X POST -d '{"name":"ids","kind":"set","elems":[1,2,3]}' http://127.0.0.1:7076/admin/host
//
// Logs are structured (log/slog, text format, stderr); -log-level picks the
// threshold (debug, info, warn, error).
//
// Sharded deployments partition every hosted dataset across N shards with a
// deterministic topology over the address list (internal/shardmap). Shards
// are comma-separated; replicas of one shard are pipe-separated within the
// shard's entry. Each serving instance keeps only the slice its shard owns
// (sets, multisets and sets of sets partition; a graph or a forest is refused),
// every replica of a shard keeps the identical slice, and a sync with -shards
// fans one logical reconcile out over all shards — failing over between
// replicas and optionally hedging slow ones — then merges the recovered
// shards:
//
//	sosrd shard-serve -shards 'h1:7075|h4:7075,h2:7075,h3:7075' -index 0 -replica-index 0 -data datasets.json
//	sosrd shard-serve -shards 'h1:7075|h4:7075,h2:7075,h3:7075' -index 0 -replica-index 1 -data datasets.json
//	sosrd shard-serve -shards 'h1:7075|h4:7075,h2:7075,h3:7075' -index 1 -data datasets.json
//	sosrd shard-serve -shards 'h1:7075|h4:7075,h2:7075,h3:7075' -index 2 -data datasets.json
//	sosrd shard-sync  -shards 'h1:7075|h4:7075,h2:7075,h3:7075' -name docs -kind sos -d 24 -replica replica.json
//
// Every instance receives the same -shards list and the full logical
// datasets; shard identity is canonical (order-insensitive), ownership
// filtering is deterministic, so the instances agree on the partition
// without talking to each other, and sessions carrying wrong shard
// coordinates or a stale -epoch are rejected at the handshake.
//
// The datasets file maps names to data; an entry is a store.Record in its JSON
// form, the same one /admin/host takes as its body:
//
//	{"datasets": [
//	  {"name": "ids",  "kind": "set",      "elems": [1, 2, 3]},
//	  {"name": "bag",  "kind": "multiset", "elems": [1, 1, 2]},
//	  {"name": "docs", "kind": "sos",      "parents": [[1, 2], [3]]},
//	  {"name": "g",    "kind": "graph",    "n": 4, "edges": [[0, 1], [1, 2]]},
//	  {"name": "f",    "kind": "forest",   "parent": [-1, 0, 0]}
//	]}
//
// A replica file for sync holds one entry of the matching kind.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sosr"
	"sosr/internal/obs"
	"sosr/internal/shardmap"
	"sosr/internal/store"
	"sosr/internal/workload"
	"sosr/sosrnet"
	"sosr/sosrshard"
)

// logger is the process-wide structured logger; serving subcommands replace
// it once -log-level is parsed.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// fatal logs an Error record and exits.
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

// setLogLevel rebuilds the process logger at the named threshold.
func setLogLevel(level string) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		fatal("bad -log-level", "level", level, "err", err.Error())
	}
	logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch cmd := os.Args[1]; cmd {
	case "serve", "shard-serve":
		cmdServe(cmd, os.Args[2:])
	case "sync", "shard-sync":
		cmdSync(cmd, os.Args[2:])
	case "demo":
		cmdDemo()
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  sosrd serve       [-addr :7075] [-config file.json] [-demo | -data file.json] [-data-dir dir] [-max-sessions N] [-ops-addr 127.0.0.1:7076] [-admin-token T] [-trace-sample 0.1] [-trace-slow 250ms] [-trace-ring N] [-log-level info]
                    [-shards 'a:7075|a2:7075,b:7075,...' -index I [-replica-index J] [-epoch E] [-listen addr]]
  sosrd sync        -addr host:7075 -name NAME -kind set|multiset|sos [-trace] [-dump-metrics] [flags]
                    [-shards 'a:7075|a2:7075,b:7075,...' [-epoch E] [-hedge 0s] [-per-shard-d]]
  sosrd shard-serve serve, with -shards required
  sosrd shard-sync  sync, with -shards required
  sosrd demo`)
	os.Exit(2)
}

// loadDatasets reads a -data / -replica file: {"datasets": [record, ...]}, each
// entry a store.Record in its JSON form.
func loadDatasets(path string) ([]*store.Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Datasets []*store.Record `json:"datasets"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return f.Datasets, nil
}

// loadReplica returns the local replica a sync reconciles: the generated demo
// replica, or the entry called name in a replica file.
func loadReplica(cmd, name, path string, demo bool) *store.Record {
	switch {
	case demo:
		_, local := demoData()
		return local
	case path != "":
		sets, err := loadDatasets(path)
		if err != nil {
			fatal("loading replica failed", "err", err.Error())
		}
		for _, ds := range sets {
			if ds.Name == name {
				return ds
			}
		}
		fatal(cmd+": replica file has no such dataset", "dataset", name)
	}
	fatal(cmd + ": pass -replica file.json or -demo-replica")
	return nil
}

// reconciler is what sync drives: a sosrnet.Client or a sosrshard.Client, whose
// methods differ in the stats they report.
type reconciler[S any] interface {
	Sets(ctx context.Context, name string, local []uint64, cfg sosr.SetConfig) (*sosr.SetResult, S, error)
	Multiset(ctx context.Context, name string, local []uint64, diffBound int, seed uint64) ([]uint64, S, error)
	SetsOfSets(ctx context.Context, name string, local [][]uint64, cfg sosr.Config) (*sosr.Result, S, error)
}

// reconcile runs one sync of the given kind and returns the stem of its
// "recovered ..." line with the session's stats (and, for sets of sets, the
// attempts it took).
func reconcile[S any](ctx context.Context, cmd string, c reconciler[S], kind, name string, local *store.Record, set sosr.SetConfig, sos sosr.Config) (summary string, attempts int, st S) {
	var err error
	switch sosrnet.Kind(kind) {
	case sosrnet.KindSet:
		var res *sosr.SetResult
		if res, st, err = c.Sets(ctx, name, local.Elems, set); err == nil {
			summary = fmt.Sprintf("recovered %d elements (+%d -%d)", len(res.Recovered), len(res.OnlyA), len(res.OnlyB))
		}
	case sosrnet.KindMultiset:
		var rec []uint64
		if rec, st, err = c.Multiset(ctx, name, local.Elems, set.KnownDiff, set.Seed); err == nil {
			summary = fmt.Sprintf("recovered %d multiset elements", len(rec))
		}
	case sosrnet.KindSetsOfSets:
		var res *sosr.Result
		if res, st, err = c.SetsOfSets(ctx, name, local.Parents, sos); err == nil {
			summary = fmt.Sprintf("recovered %d child sets (+%d -%d) via %v", len(res.Recovered), len(res.Added), len(res.Removed), res.Protocol)
			attempts = res.Attempts
		}
	default:
		fatal(cmd+": unsupported kind", "kind", kind)
	}
	if err != nil {
		fatal(cmd+" failed", "err", err.Error())
	}
	return summary, attempts, st
}

// demoData returns the generated demo pair: the hosted side and a perturbed
// replica (what a demo client would hold).
func demoData() (hosted, replica *store.Record) {
	alice, bob := workload.PlantedSetsOfSets(17, 120, 10, 1<<32, 20)
	return &store.Record{Name: "docs", Kind: store.KindSetsOfSets, Parents: alice},
		&store.Record{Name: "docs", Kind: store.KindSetsOfSets, Parents: bob}
}

// cmdServe is serve and shard-serve: it hosts the datasets of -demo, -data or
// -config — with -shards, the slice of each that shard -index owns, rejecting
// sessions routed for any other slice or carrying a different -epoch — on top
// of whatever -data-dir recovered, and serves them until SIGINT/SIGTERM.
func cmdServe(cmd string, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr, shards, epoch := linkFlags(fs, "", "listen address (default :7075; with -shards, the -shards replica at -index/-replica-index)")
	fs.StringVar(addr, "listen", "", "another name for -addr")
	configPath := fs.String("config", "", "JSON config file; explicit flags override its values")
	index := fs.Int("index", -1, "this instance's shard position in -shards")
	replicaIdx := fs.Int("replica-index", 0, "this instance's replica position within its shard's entry")
	data := fs.String("data", "", "datasets JSON file (with -shards: the full logical datasets; the owned slice is kept)")
	demo := fs.Bool("demo", false, "host a generated demo sets-of-sets dataset named \"docs\"")
	dataDir := fs.String("data-dir", "", "durable store directory: snapshots + WAL (and the shard binding), crash recovery on boot, snapshot on SIGTERM")
	maxSessions := fs.Int("max-sessions", 0, "concurrent session cap; excess hellos get the busy error (0 = unlimited)")
	opsAddr := fs.String("ops-addr", "", "private ops listener address (/metrics, /healthz, /readyz, /datasets, /admin/*, /debug/*); empty disables")
	adminToken := fs.String("admin-token", "", "bearer token required on /admin/* and /debug/* ops routes (empty = open)")
	traceSample := fs.Float64("trace-sample", 0, "probability a session starts a server-rooted trace, 0..1 (client-opened traces are always recorded)")
	traceSlow := fs.Duration("trace-slow", 0, "capture traces slower than this in the flagged ring (0 disables slow capture)")
	traceRing := fs.Int("trace-ring", 0, "retained traces per ring, recent and flagged separately (0 = 256)")
	logLevel := fs.String("log-level", "", "log threshold: debug, info, warn, error (default info)")
	fs.Parse(args)

	cfg := &serverConfig{}
	if *configPath != "" {
		var err error
		if cfg, err = loadServerConfig(*configPath); err != nil {
			fatal("loading config failed", "err", err.Error())
		}
	}
	cfg.Addr = pick(*addr, cfg.Addr)
	cfg.OpsAddr = pick(*opsAddr, cfg.OpsAddr)
	cfg.DataDir = pick(*dataDir, cfg.DataDir)
	cfg.LogLevel = pick(*logLevel, pick(cfg.LogLevel, "info"))
	cfg.Ops.AdminToken = pick(*adminToken, cfg.Ops.AdminToken)
	if *maxSessions > 0 {
		cfg.MaxSessions = *maxSessions
	}
	if *traceSample > 0 {
		cfg.Trace.Sample = *traceSample
	}
	if *traceRing > 0 {
		cfg.Trace.Ring = *traceRing
	}
	setLogLevel(cfg.LogLevel)

	srv := sosrnet.NewServer()
	srv.Logger = logger
	// topo stays nil for an unsharded server, which hosts every dataset whole.
	var topo *shardmap.Topology
	defaultAddr := ":7075"
	if *shards != "" || cmd == "shard-serve" {
		var err error
		if topo, err = parseTopology(*shards, *epoch); err != nil {
			fatal("bad -shards list", "err", err.Error())
		}
		if *index < 0 || *index >= topo.NumShards() {
			fatal(cmd+": -index outside shard list", "index", *index, "shards", topo.NumShards())
		}
		replicas := topo.Replicas(*index)
		if *replicaIdx < 0 || *replicaIdx >= len(replicas) {
			fatal(cmd+": -replica-index outside the shard's replica list",
				"replica_index", *replicaIdx, "replicas", len(replicas))
		}
		defaultAddr = replicas[*replicaIdx]
		srv.Logger = logger.With("shard", *index, "replica", *replicaIdx)
	}
	cfg.Addr = pick(cfg.Addr, defaultAddr)
	srv.MaxConcurrentSessions = cfg.MaxSessions
	srv.AdminToken = cfg.Ops.AdminToken
	srv.Trace = newTracer(cfg.Trace, *traceSlow)
	st := openStore(srv, cfg)

	sets := cfg.Datasets
	switch {
	case *demo:
		hosted, _ := demoData()
		sets = []*store.Record{hosted}
	case *data != "":
		var err error
		if sets, err = loadDatasets(*data); err != nil {
			fatal("loading datasets failed", "err", err.Error())
		}
	}
	if len(sets) == 0 && cfg.DataDir == "" {
		fatal(cmd + ": pass -demo, -data file.json, datasets in -config, or -data-dir with persisted state")
	}
	if err := hostAll(srv, sets, topo, *index); err != nil {
		fatal("hosting dataset failed", "err", err.Error())
	}
	srv.SetReady(true)

	ops := startOps(srv, cfg.OpsAddr)
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		fatal("listen failed", "addr", cfg.Addr, "err", err.Error())
	}
	runServer(srv, ln, ops, st)
}

// hostAll hosts the datasets a file or the demo generator supplied — with a
// topology, shard index's slice of each — except those the store already
// recovered: a persisted record carries its shard binding, so a recovered slice
// is already filtered and bound, and the file copy is redundant.
func hostAll(srv *sosrnet.Server, sets []*store.Record, topo *shardmap.Topology, index int) error {
	for _, d := range sets {
		if _, err := srv.DatasetVersion(d.Name); err == nil {
			logger.Info("dataset already recovered from the store; file copy ignored", "dataset", d.Name)
			continue
		}
		if err := srv.Host(d, topo, index); err != nil {
			return fmt.Errorf("dataset %q: %w", d.Name, err)
		}
		if topo == nil {
			logger.Info("hosting dataset", "dataset", d.Name, "kind", d.Kind)
		} else {
			logger.Info("hosting dataset shard", "dataset", d.Name, "kind", d.Kind,
				"shard", index, "shards", topo.NumShards(), "epoch", topo.Epoch())
		}
	}
	return nil
}

// newTracer builds a serving command's tracer from its knobs. The tracer is
// always non-nil — even at sample rate 0 it records traces that clients
// opened (trace context in the hello), which is how one `shard-sync -trace`
// run shows up on every shard server's /debug/traces.
func newTracer(tc traceConfig, slowFlag time.Duration) *obs.Tracer {
	slow := slowFlag
	if slow == 0 && tc.Slow != "" {
		var err error
		if slow, err = time.ParseDuration(tc.Slow); err != nil {
			fatal("bad trace.slow duration in config", "slow", tc.Slow, "err", err.Error())
		}
	}
	return &obs.Tracer{SampleRate: tc.Sample, SlowThreshold: slow, MaxTraces: tc.Ring}
}

// openStore attaches the durable store when a data dir is configured, and
// recovers whatever the previous incarnation persisted. The server stays
// not-ready until recovery (and the caller's hosting) completes.
func openStore(srv *sosrnet.Server, cfg *serverConfig) *store.Disk {
	if cfg.DataDir == "" {
		return nil
	}
	srv.SetReady(false)
	st, err := store.Open(cfg.DataDir, cfg.storeOptions())
	if err != nil {
		fatal("opening data dir failed", "dir", cfg.DataDir, "err", err.Error())
	}
	st.Observe(srv.Registry())
	srv.UseStore(st)
	rs, err := srv.Recover()
	if err != nil {
		fatal("crash recovery failed", "dir", cfg.DataDir, "err", err.Error())
	}
	logger.Info("store recovered", "dir", cfg.DataDir, "datasets", rs.Datasets,
		"replayed", rs.Replayed, "truncated_wals", rs.Truncated, "digests", rs.Digests)
	return st
}

// startOps serves the server's operational HTTP surface on its own listener.
// The ops port must stay private — pprof, dataset listings, and the admin
// mutation endpoints are not for the reconciliation peers. The returned
// server is closed during shutdown so the port is released promptly.
func startOps(srv *sosrnet.Server, addr string) *http.Server {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("ops listen failed", "addr", addr, "err", err.Error())
	}
	logger.Info("ops endpoint listening", "addr", ln.Addr().String())
	hs := &http.Server{Handler: srv.OpsHandler()}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("ops server stopped", "err", err.Error())
		}
	}()
	return hs
}

// shutdownGrace bounds the wait for in-flight sessions on SIGINT/SIGTERM
// before they are severed.
const shutdownGrace = 5 * time.Second

// runServer serves ln until SIGINT/SIGTERM, then drains: readiness drops
// first (load balancers stop routing), in-flight sessions get a grace
// period, every dataset is snapshotted so the next boot replays nothing,
// and the ops listener and store are closed.
func runServer(srv *sosrnet.Server, ln net.Listener, ops *http.Server, st *store.Disk) {
	logger.Info("sosrd listening", "addr", ln.Addr().String())
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		srv.SetReady(false)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("sessions severed at the shutdown deadline", "err", err.Error())
		}
		if err := srv.SnapshotAll(); err != nil {
			logger.Error("shutdown snapshot failed", "err", err.Error())
		}
		if ops != nil {
			_ = ops.Close()
		}
		if st != nil {
			if err := st.Close(); err != nil {
				logger.Error("closing store failed", "err", err.Error())
			}
		}
	}()
	if err := srv.Serve(ln); err != nil {
		fatal("serve failed", "err", err.Error())
	}
	<-drained
}

// linkFlags declares the flags both roles name the other end by: one address,
// or a shard topology and its epoch.
func linkFlags(fs *flag.FlagSet, addrDefault, addrUsage string) (addr, shards *string, epoch *uint64) {
	return fs.String("addr", addrDefault, addrUsage),
		fs.String("shards", "", "shard topology: comma-separated shards, pipe-separated replicas per shard (the same list on every instance and client)"),
		fs.Uint64("epoch", 0, "topology epoch; a client carrying another than the serving instances' is told to re-resolve")
}

// parseTopology builds the replicated topology from the CLI syntax: shards
// separated by commas, replicas of one shard separated by pipes.
//
//	"a:7075,b:7075"            two shards, one replica each
//	"a:7075|a2:7075,b:7075"    shard 0 has two replicas
func parseTopology(list string, epoch uint64) (*shardmap.Topology, error) {
	var shards [][]string
	for _, entry := range strings.Split(list, ",") {
		if entry = strings.TrimSpace(entry); entry == "" {
			continue
		}
		var reps []string
		for _, a := range strings.Split(entry, "|") {
			if a = strings.TrimSpace(a); a != "" {
				reps = append(reps, a)
			}
		}
		shards = append(shards, reps)
	}
	return shardmap.NewTopology(epoch, shards)
}

// cmdSync is sync and shard-sync: one reconcile of a local replica against
// the dataset hosted at -addr, or — with -shards — fanned out over every shard,
// failing over between a shard's replicas and optionally hedging stragglers,
// with the recovered slices merged and the byte report itemized per shard.
func cmdSync(cmd string, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr, shards, epoch := linkFlags(fs, "127.0.0.1:7075", "server address (without -shards)")
	name := fs.String("name", "", "dataset name")
	kind := fs.String("kind", "sos", "dataset kind: set, multiset or sos")
	replica := fs.String("replica", "", "local replica JSON file (omit with -demo-replica)")
	demoReplica := fs.Bool("demo-replica", false, "use the generated demo replica (pairs with serve -demo)")
	protocol := fs.String("protocol", "auto", "sets-of-sets protocol: auto, naive, nested, cascade, multiround")
	seed := fs.Uint64("seed", 42, "shared public-coin seed (must match across runs to be comparable)")
	d := fs.Int("d", 0, "known difference bound, with -shards for the whole logical dataset (0 = unknown-d variant)")
	charpoly := fs.Bool("charpoly", false, "set kind: use the characteristic-polynomial protocol")
	hedge := fs.Duration("hedge", 0, "with -shards: straggler delay before racing a second replica of a slow shard (0 disables hedging)")
	perShardD := fs.Bool("per-shard-d", false, "with -shards: drop -d per shard so each shard estimates its own difference bound")
	dumpMetrics := fs.Bool("dump-metrics", false, "print the client's Prometheus metrics (connection, failover and hedge counters) to stdout after the sync")
	trace := fs.Bool("trace", false, "trace the sync end to end and print its trace id; every server it reaches records the same trace (see /debug/traces?id=...)")
	fs.Parse(args)
	if *name == "" {
		fatal(cmd + ": -name is required")
	}
	local := loadReplica(cmd, *name, *replica, *demoReplica)
	set := sosr.SetConfig{Seed: *seed, KnownDiff: *d, UseCharPoly: *charpoly}
	sos := sosr.Config{Seed: *seed, Protocol: parseProtocolFlag(*protocol), KnownDiff: *d}
	reg := obs.NewRegistry()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With -trace, root the whole sync under one always-sampled span: the
	// fan-out, every per-shard attempt, and each server's stage spans share
	// its trace id, printed at the end for /debug/traces?id= lookups.
	var syncSpan *obs.Span
	if *trace {
		tr := &obs.Tracer{SampleRate: 1}
		syncSpan = tr.StartRoot(cmd)
		ctx = obs.ContextWithSpan(ctx, syncSpan)
	}

	if *shards == "" && cmd != "shard-sync" {
		c := sosrnet.Dial(*addr)
		defer c.Close()
		c.Obs = reg
		summary, attempts, ns := reconcile(ctx, cmd, c, *kind, *name, local, set, sos)
		if attempts > 0 {
			summary += fmt.Sprintf(" in %d attempt(s)", attempts)
		}
		fmt.Println(summary)
		printStats(ns)
	} else {
		topo, err := parseTopology(*shards, *epoch)
		if err != nil {
			fatal("bad -shards list", "err", err.Error())
		}
		c, err := sosrshard.Dial(topo)
		if err != nil {
			fatal("dialing shards failed", "err", err.Error())
		}
		defer c.Close()
		c.HedgeDelay, c.PerShardDiff, c.Logger, c.Obs = *hedge, *perShardD, logger, reg
		summary, _, st := reconcile(ctx, cmd, c, *kind, *name, local, set, sos)
		fmt.Printf("%s across %d shards\n", summary, topo.NumShards())
		printShardStats(st)
	}
	if syncSpan != nil {
		syncSpan.Finish()
		fmt.Printf("trace: id=%s\n", syncSpan.TraceID())
	}
	if *dumpMetrics {
		if err := reg.WriteProm(os.Stdout); err != nil {
			fatal("dumping metrics failed", "err", err.Error())
		}
	}
}

func printShardStats(st *sosrshard.Stats) {
	fmt.Printf("protocol: bytes=%d (server=%d client=%d) msgs=%d attempts=%d\n",
		st.Protocol.TotalBytes, st.Protocol.AliceBytes, st.Protocol.BobBytes, st.Protocol.Messages, st.Attempts)
	fmt.Printf("wire:     in=%dB out=%dB overhead=%dB (TCP total %dB = protocol + framing)\n",
		st.WireIn, st.WireOut, st.Overhead, st.WireIn+st.WireOut)
	if st.Failovers > 0 || st.Hedges > 0 {
		fmt.Printf("replicas: failovers=%d hedges=%d hedge-wins=%d\n",
			st.Failovers, st.Hedges, st.HedgeWins)
	}
	for _, sh := range st.Shards {
		fmt.Printf("  shard %d via %-21s bytes=%-6d overhead=%-4d sessions=%d attempts=%d\n",
			sh.Index, sh.Replica, sh.Net.Protocol.TotalBytes, sh.Net.Overhead, sh.Attempts, sh.Net.Attempts)
	}
}

func parseProtocolFlag(s string) sosr.Protocol {
	switch s {
	case "naive":
		return sosr.ProtocolNaive
	case "nested":
		return sosr.ProtocolNested
	case "cascade":
		return sosr.ProtocolCascade
	case "multiround":
		return sosr.ProtocolMultiRound
	default:
		return sosr.ProtocolAuto
	}
}

func printStats(ns *sosrnet.NetStats) {
	fmt.Printf("protocol: rounds=%d bytes=%d (server=%d client=%d) msgs=%d\n",
		ns.Protocol.Rounds, ns.Protocol.TotalBytes, ns.Protocol.AliceBytes, ns.Protocol.BobBytes, ns.Protocol.Messages)
	fmt.Printf("wire:     in=%dB out=%dB overhead=%dB\n", ns.WireIn, ns.WireOut, ns.Overhead)
}

// cmdDemo runs server and client in one process over loopback: the fastest
// proof that the hosted data travels as exactly the bytes the paper's
// accounting predicts.
func cmdDemo() {
	hosted, replica := demoData()
	// Hosting canonicalises the record in place; the in-process run below
	// wants the data as generated.
	alice := hosted.Parents
	srv := sosrnet.NewServer()
	srv.Logger = logger
	if err := srv.Host(hosted, nil, 0); err != nil {
		fatal("hosting demo dataset failed", "err", err.Error())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("listen failed", "err", err.Error())
	}
	go srv.Serve(ln)
	defer func() {
		// Graceful: let the server finish reading the session's closing
		// report (and log it) before tearing down.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	logger.Info("demo server listening", "addr", ln.Addr().String())

	cfg := sosr.Config{Seed: 42, Protocol: sosr.ProtocolCascade, KnownDiff: 40}
	want, err := sosr.ReconcileSetsOfSets(alice, replica.Parents, cfg)
	if err != nil {
		fatal("in-process reconcile failed", "err", err.Error())
	}
	client := sosrnet.Dial(ln.Addr().String())
	defer client.Close()
	res, ns, err := client.SetsOfSets(context.Background(), "docs", replica.Parents, cfg)
	if err != nil {
		fatal("demo sync failed", "err", err.Error())
	}
	fmt.Printf("recovered %d child sets (+%d added, -%d removed) over TCP\n",
		len(res.Recovered), len(res.Added), len(res.Removed))
	printStats(ns)
	fmt.Printf("in-process simulation predicts %d payload bytes; the wire moved %d payload bytes (+%dB framing)\n",
		want.Stats.TotalBytes, ns.Protocol.TotalBytes, ns.Overhead)
	if want.Stats.TotalBytes == ns.Protocol.TotalBytes {
		fmt.Println("byte-exact: two real machines exchange exactly the bytes the paper's accounting predicts")
	} else {
		fatal("wire payload diverged from the in-process prediction")
	}
}
