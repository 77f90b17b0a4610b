package main

// spec.go is the benchmark's fixed vocabulary: workload names, metric names,
// units, directions and regression bounds. BENCHMARK.json at the repository
// root restates the workloads and metrics for the builder's driver; the test
// holds the two in agreement.

// Load shape, the same for every workload and every machine: deriving it from
// nproc would make two machines run different benchmarks.
const (
	numClients = 2 // closed-loop client goroutines (shard_sos_fanout: 1 logical client, 2 connections)
	numRounds  = 5 // untraced rounds per workload; a timing metric is the median over them
	numSetups  = 5 // set-ups per workload; setup_s is their median
	legTries   = 3 // attempts per session before an op counts as failed (fresh derived coins each)
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// countOps is the per-client op prefix that count-type metrics
	// (wire_bytes_per_diff, fail_ratio, rounds, frames) are taken over, so
	// they repeat exactly however many ops a timed window fits.
	countOps int
}

var workloadDefs = []workloadDef{
	{"hot_sos_tcp", "repeated cascade session on one hosted dataset: server payload and client sketch are cache hits, so connect, handshake and framing are the cost", 200},
	{"cold_kinds_tcp", "fresh coins per session across all five dataset kinds: both caches miss, so encode and decode in the algorithm packages are the cost", 10},
	{"churn_sos_disk", "one fsynced update then one reconcile per op: every session sees a new version, so digest patching, sketch rebuilds and the WAL are the cost", 40},
	{"shard_sos_fanout", "one fan-out over two shard servers per op: the result waits for the slower shard, so split, merge and two handshakes are the cost", 60},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact makes -compare call any worsening a regression: the metric is a
	// count that repeats exactly for a given seed.
	exact bool
	// noisy marks an end-to-end metric that did not hold its bound between
	// runs of one commit on the 2-vCPU shared VM the bounds were chosen on
	// (quartile spread 13-25 % over ten runs). BENCHMARK.json lists it under
	// per_layer, where the builder's driver reports it without gating;
	// -compare still applies the bound and answers "unresolved" when the
	// rounds spread wider than it.
	noisy bool
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, noisy: true},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, noisy: true},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10, noisy: true},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.10, noisy: true},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "wire_bytes_per_diff", Unit: "B", Better: "lower", Bound: 0.05, exact: true},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// gatedLayer are defined on one workload only or are 0 when all is well, so
// they cannot be end-to-end metrics of BENCHMARK.json (never 0, present on
// every workload); -compare still holds them to the issue's bounds.
var gatedLayer = []metricDef{
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", exact: true},
	{Name: "update_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
}

// driverMetrics splits the vocabulary the way BENCHMARK.json does: the
// end-to-end metrics the driver gates, and everything else.
func driverMetrics() (gated, reported []metricDef) {
	for _, d := range endToEnd {
		if d.noisy {
			reported = append(reported, d)
		} else {
			gated = append(gated, d)
		}
	}
	return gated, append(reported, perLayer...)
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer lists every single-layer metric in output order. A metric that a
// workload does not exercise (store.* outside churn_sos_disk, sosrshard.*
// outside shard_sos_fanout, the per-kind session_ms outside cold_kinds_tcp)
// reads 0 there.
var perLayer = append(append([]metricDef{}, gatedLayer...), []metricDef{
	layer("hashing.hashword_ns", "ns", "lower"),
	layer("iblt.insert_ns", "ns", "lower"),
	layer("iblt.decode_us", "us", "lower"),
	layer("iblt.decode_fail_ratio", "ratio", "lower"),
	layer("field.mul_ns", "ns", "lower"),
	layer("field.roots_us", "us", "lower"),
	layer("estimator.strata_build_us", "us", "lower"),
	layer("estimator.overshoot_ratio", "ratio", "lower"),
	layer("setrecon.iblt_encode_us", "us", "lower"),
	layer("setrecon.iblt_decode_us", "us", "lower"),
	layer("setrecon.charpoly_encode_us", "us", "lower"),
	layer("setrecon.charpoly_decode_us", "us", "lower"),
	layer("setrecon.bytes_per_diff", "B", "lower"),
	layer("setrecon.session_ms", "ms", "lower"),
	layer("core.naive_encode_us", "us", "lower"),
	layer("core.naive_decode_us", "us", "lower"),
	layer("core.nested_encode_us", "us", "lower"),
	layer("core.nested_decode_us", "us", "lower"),
	layer("core.cascade_encode_us", "us", "lower"),
	layer("core.cascade_decode_us", "us", "lower"),
	layer("core.cascade_decode_cached_us", "us", "lower"),
	layer("core.sketch_build_us", "us", "lower"),
	layer("core.multiround_ms", "ms", "lower"),
	layer("core.digest_patch_us", "us", "lower"),
	layer("core.digest_snapshot_us", "us", "lower"),
	layer("core.cascade_decode_allocs", "count", "lower"),
	layer("core.naive_bytes_per_diff", "B", "lower"),
	layer("core.nested_bytes_per_diff", "B", "lower"),
	layer("core.cascade_bytes_per_diff", "B", "lower"),
	layer("core.session_ms", "ms", "lower"),
	layer("graphrecon.degree_encode_us", "us", "lower"),
	layer("graphrecon.degree_decode_us", "us", "lower"),
	layer("graphrecon.nbr_encode_us", "us", "lower"),
	layer("graphrecon.nbr_decode_us", "us", "lower"),
	layer("graphrecon.degree_allocs", "count", "lower"),
	layer("graphrecon.degree_fail_ratio", "ratio", "lower"),
	layer("graphrecon.session_ms", "ms", "lower"),
	layer("graphrecon.nbr_session_ms", "ms", "lower"),
	layer("forest.encode_us", "us", "lower"),
	layer("forest.decode_us", "us", "lower"),
	layer("forest.allocs", "count", "lower"),
	layer("forest.bytes_per_diff", "B", "lower"),
	layer("forest.session_ms", "ms", "lower"),
	layer("enccache.hit_us", "us", "lower"),
	layer("enccache.server_hit_ratio", "ratio", "higher"),
	layer("enccache.client_hit_ratio", "ratio", "higher"),
	layer("enccache.resident_mb", "MB", "lower"),
	layer("wire.frame_encode_ns", "ns", "lower"),
	layer("wire.frame_decode_ns", "ns", "lower"),
	layer("wire.overhead_bytes_per_op", "B", "lower"),
	layer("wire.frames_per_op", "count", "lower"),
	layer("sosrnet.null_session_us", "us", "lower"),
	layer("sosrnet.session_overhead_us", "us", "lower"),
	layer("sosrnet.rounds_per_op", "count", "lower"),
	layer("sosrnet.update_mem_us", "us", "lower"),
	layer("sosrnet.rejects", "count", "lower"),
	layer("sosrnet.op_p99_ms", "ms", "lower"),
	layer("sosrnet.retries_per_op", "count", "lower"),
	layer("sosrnet.stage_share.hello", "ratio", "lower"),
	layer("sosrnet.stage_share.estimate", "ratio", "lower"),
	layer("sosrnet.stage_share.encode", "ratio", "lower"),
	layer("sosrnet.stage_share.transfer", "ratio", "lower"),
	layer("sosrnet.stage_share.decode", "ratio", "lower"),
	layer("sosrnet.stage_share.store-append", "ratio", "lower"),
	layer("sosrnet.stage_share.commit", "ratio", "lower"),
	layer("sosrshard.fanout_overhead_us", "us", "lower"),
	layer("sosrshard.straggler_spread_us", "us", "lower"),
	layer("sosrshard.bytes_vs_single_ratio", "ratio", "lower"),
	layer("sosrshard.attempts_per_op", "count", "lower"),
	layer("shardmap.owner_ns", "ns", "lower"),
	layer("store.append_p50_us", "us", "lower"),
	layer("store.append_p99_us", "us", "lower"),
	layer("store.append_nosync_us", "us", "lower"),
	layer("store.snapshot_ms", "ms", "lower"),
	layer("store.recover_ms", "ms", "lower"),
	layer("store.wal_bytes_per_update", "B", "lower"),
	layer("store.write_amp", "ratio", "lower"),
	layer("store.compactions", "count", "lower"),
	layer("obs.trace_overhead_ratio", "ratio", "higher"),
	layer("env.nproc", "count", "higher"),
	layer("env.gomaxprocs", "count", "higher"),
	layer("env.steal_ratio", "ratio", "lower"),
	layer("env.timewait_sockets", "count", "lower"),
	layer("env.calib_ms", "ms", "lower"),
	layer("env.peak_rss_mb", "MB", "lower"),
	layer("env.gc_cpu_ratio", "ratio", "lower"),
}...)

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}
