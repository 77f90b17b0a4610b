package sosrshard

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sosr"
	"sosr/internal/obs"
	"sosr/internal/setutil"
	"sosr/internal/workload"
	"sosr/sosrnet"
)

// countHandler is a slog.Handler counting the server's "session finished"
// records, so tests know when the per-shard byte counters are final.
type countHandler struct {
	n *atomic.Int64
}

func (h countHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h countHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "session finished" {
		h.n.Add(1)
	}
	return nil
}
func (h countHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h countHandler) WithGroup(string) slog.Handler      { return h }

// countingListener / countingConn give the tests an independent measurement
// of the real TCP traffic per replica (the ground truth the aggregated Stats
// must reproduce), plus per-replica fault injection: an optional first-read
// stall (to make a replica a deterministic straggler for hedging tests).
type countingListener struct {
	net.Listener
	n         atomic.Int64
	stall     atomic.Int64 // nanoseconds to sleep before the first read
	killAfter atomic.Int64 // sever every conn once the byte counter crosses this
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, ln: l}, nil
}

type countingConn struct {
	net.Conn
	ln   *countingListener
	once sync.Once
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.once.Do(func() {
		if d := c.ln.stall.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
	})
	n, err := c.Conn.Read(p)
	c.ln.n.Add(int64(n))
	c.maybeKill()
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.ln.n.Add(int64(n))
	c.maybeKill()
	return n, err
}

func (c *countingConn) maybeKill() {
	if ka := c.ln.killAfter.Load(); ka > 0 && c.ln.n.Load() >= ka {
		c.Conn.Close()
	}
}

// shardDeployment is a loopback replicated deployment: shards × replicas
// servers on counting listeners, a coordinator over them, and a fan-out
// client. The flat servers/counters views hold replica 0 of each shard (the
// whole deployment when replicas == 1), for the single-replica tests that
// predate replication.
type shardDeployment struct {
	topo     *Topology
	co       *Coordinator
	client   *Client
	servers  []*sosrnet.Server // replica 0 of each shard
	counters []*countingListener
	all      [][]*sosrnet.Server
	allLn    [][]*countingListener
	sessions atomic.Int64 // finished server-side sessions (log lines)
}

func startShards(t *testing.T, n int) *shardDeployment {
	return startReplicated(t, n, 1)
}

// startReplicated builds a shards × replicas loopback deployment at epoch 1.
func startReplicated(t *testing.T, shards, replicas int) *shardDeployment {
	t.Helper()
	d := &shardDeployment{}
	lists := make([][]string, shards)
	var serveWg sync.WaitGroup
	for i := 0; i < shards; i++ {
		var group []*sosrnet.Server
		var lns []*countingListener
		for j := 0; j < replicas; j++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cl := &countingListener{Listener: ln}
			srv := sosrnet.NewServer()
			srv.Logger = slog.New(countHandler{n: &d.sessions})
			lists[i] = append(lists[i], ln.Addr().String())
			group = append(group, srv)
			lns = append(lns, cl)
			serveWg.Add(1)
			go func() { defer serveWg.Done(); srv.Serve(cl) }()
		}
		d.all = append(d.all, group)
		d.allLn = append(d.allLn, lns)
		d.servers = append(d.servers, group[0])
		d.counters = append(d.counters, lns[0])
	}
	topo, err := NewTopology(1, lists)
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(topo, d.all)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(topo)
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = 60 * time.Second
	d.topo, d.co, d.client = topo, co, client
	t.Cleanup(func() {
		for _, group := range d.all {
			for _, srv := range group {
				srv.Close()
			}
		}
		serveWg.Wait()
	})
	return d
}

// topoAt rebuilds the deployment's topology at another epoch (same shards).
func (d *shardDeployment) topoAt(t *testing.T, epoch uint64) *Topology {
	t.Helper()
	lists := make([][]string, d.topo.NumShards())
	for i := range lists {
		lists[i] = d.topo.Replicas(i)
	}
	topo, err := NewTopology(epoch, lists)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// primary returns the replica index the client will try first for this shard
// under the given logical seed (the rendezvous order key is the derived
// per-shard session seed).
func (d *shardDeployment) primary(shard int, seed uint64) int {
	key := shardSeed(seed, shard)
	return d.topo.ReplicaOrder(shard, key)[0]
}

// waitSessions blocks until the servers have finished (logged) total
// sessions, so the listener byte counters are final.
func (d *shardDeployment) waitSessions(t *testing.T, total int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.sessions.Load() < total {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d server sessions (have %d)", total, d.sessions.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkAggregateParity verifies the itemized byte report: per shard, the
// listener-measured TCP bytes equal that shard's protocol bytes plus its
// framing overhead; in aggregate, total TCP bytes equal the summed Stats
// plus summed framing. This is the acceptance invariant for sharding; it
// only holds when every shard's first replica won outright (no failovers or
// hedges — abandoned attempts move TCP bytes no winning session accounts).
func (d *shardDeployment) checkAggregateParity(t *testing.T, st *Stats) {
	t.Helper()
	if len(st.Shards) != len(d.counters) {
		t.Fatalf("itemized report covers %d shards, deployment has %d", len(st.Shards), len(d.counters))
	}
	var tcpTotal int64
	for i, sh := range st.Shards {
		var tcp int64
		for _, ln := range d.allLn[i] {
			tcp += ln.n.Load()
		}
		tcpTotal += tcp
		if want := int64(sh.Net.Protocol.TotalBytes) + sh.Net.Overhead; tcp != want {
			t.Fatalf("shard %d: TCP bytes %d != protocol %d + framing %d",
				i, tcp, sh.Net.Protocol.TotalBytes, sh.Net.Overhead)
		}
		if sh.Net.WireIn+sh.Net.WireOut != int64(sh.Net.Protocol.TotalBytes)+sh.Net.Overhead {
			t.Fatalf("shard %d: wire accounting inconsistent: %+v", i, sh.Net)
		}
	}
	if want := int64(st.Protocol.TotalBytes) + st.Overhead; tcpTotal != want {
		t.Fatalf("total TCP bytes %d != Σ shard protocol %d + Σ framing %d",
			tcpTotal, st.Protocol.TotalBytes, st.Overhead)
	}
	checkStatsParity(t, st)
}

// checkStatsParity checks the Stats-internal invariant alone (survives
// failovers and hedges, whose losing attempts are outside the winning
// sessions' accounting).
func checkStatsParity(t *testing.T, st *Stats) {
	t.Helper()
	if st.WireIn+st.WireOut != int64(st.Protocol.TotalBytes)+st.Overhead {
		t.Fatalf("aggregate wire accounting inconsistent: %+v", st)
	}
	var in, out, overhead int64
	var bytes int
	for _, sh := range st.Shards {
		in += sh.Net.WireIn
		out += sh.Net.WireOut
		overhead += sh.Net.Overhead
		bytes += sh.Net.Protocol.TotalBytes
	}
	if in != st.WireIn || out != st.WireOut || overhead != st.Overhead || bytes != st.Protocol.TotalBytes {
		t.Fatalf("itemized shards do not sum to the aggregate: %+v", st)
	}
}

// TestShardedSetsOfSetsMatchesSingleInstance is the acceptance test: a
// 3-shard loopback fan-out recovers the identical difference set as a
// single-instance reconcile of the same data, and the measured TCP bytes
// equal the sum of the per-shard Stats plus itemized framing overhead.
func TestShardedSetsOfSetsMatchesSingleInstance(t *testing.T) {
	ctx := context.Background()
	alice, bob := workload.PlantedSetsOfSets(17, 60, 8, 1<<32, 12)
	d := startShards(t, 3)
	if err := d.co.HostSetsOfSets("docs", alice); err != nil {
		t.Fatal(err)
	}
	cfg := sosr.Config{Seed: 77, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	want, err := sosr.ReconcileSetsOfSets(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := d.client.SetsOfSets(ctx, "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !setutil.EqualSetOfSets(got.Recovered, want.Recovered) {
		t.Fatal("sharded fan-out recovered a different parent set than the single-instance run")
	}
	wantAdded, wantRemoved := setutil.CloneSets(want.Added), setutil.CloneSets(want.Removed)
	setutil.SortSets(wantAdded)
	setutil.SortSets(wantRemoved)
	if !reflect.DeepEqual(got.Added, wantAdded) || !reflect.DeepEqual(got.Removed, wantRemoved) {
		t.Fatalf("sharded difference set diverges:\n  added   %v vs %v\n  removed %v vs %v",
			got.Added, wantAdded, got.Removed, wantRemoved)
	}
	// Every shard actually participated (the planted instance is large
	// enough that rendezvous hashing spreads children over all three).
	for i, sh := range st.Shards {
		if sh.Net.Protocol.TotalBytes == 0 {
			t.Fatalf("shard %d moved no protocol bytes", i)
		}
	}
	d.waitSessions(t, 3)
	d.checkAggregateParity(t, st)
}

// TestShardedSetsMatchesSingleInstance: same acceptance shape for plain sets.
func TestShardedSetsMatchesSingleInstance(t *testing.T) {
	ctx := context.Background()
	alice := make([]uint64, 0, 800)
	for x := uint64(100); x < 900; x++ {
		alice = append(alice, x)
	}
	bob := append(append([]uint64{}, alice[5:]...), 10_000, 10_001, 10_002, 10_003, 10_004)
	d := startShards(t, 3)
	if err := d.co.HostSets("ids", alice); err != nil {
		t.Fatal(err)
	}
	cfg := sosr.SetConfig{Seed: 7, KnownDiff: 16}
	want, err := sosr.ReconcileSets(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := d.client.Sets(ctx, "ids", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recovered, setutil.Canonical(alice)) {
		t.Fatal("sharded fan-out did not recover the full logical set")
	}
	if !reflect.DeepEqual(got.OnlyA, want.OnlyA) || !reflect.DeepEqual(got.OnlyB, want.OnlyB) {
		t.Fatal("sharded difference set diverges from the single-instance run")
	}
	d.waitSessions(t, 3)
	d.checkAggregateParity(t, st)
}

// TestShardedMultisetMatchesSingleInstance: multiset fan-out merges to the
// same recovery as the unsharded reconcile.
func TestShardedMultisetMatchesSingleInstance(t *testing.T) {
	ctx := context.Background()
	alice := []uint64{1, 1, 1, 2, 5, 5, 9, 9, 9, 9, 40, 41, 41, 77, 78, 79, 80, 80}
	bob := []uint64{1, 1, 2, 2, 5, 9, 9, 9, 9, 40, 41, 42, 77, 78, 79, 80}
	d := startShards(t, 3)
	if err := d.co.HostMultiset("bag", alice); err != nil {
		t.Fatal(err)
	}
	wantRec, _, err := sosr.ReconcileMultisets(alice, bob, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := d.client.Multiset(ctx, "bag", bob, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantRec) {
		t.Fatalf("sharded multiset recovered %v, want %v", got, wantRec)
	}
	d.waitSessions(t, 3)
	d.checkAggregateParity(t, st)
}

// TestPerShardDiffEstimation: with PerShardDiff set, the caller's logical
// difference bound is dropped per shard and every shard estimates its own d̂
// against its actual slice — the merged recovery is still exact.
func TestPerShardDiffEstimation(t *testing.T) {
	ctx := context.Background()
	alice := make([]uint64, 0, 3000)
	for x := uint64(1000); x < 4000; x++ {
		alice = append(alice, x)
	}
	bob := append(append([]uint64{}, alice[30:]...), 90_001, 90_002, 90_003)
	d := startShards(t, 3)
	if err := d.co.HostSets("ids", alice); err != nil {
		t.Fatal(err)
	}
	d.client.PerShardDiff = true
	// The logical bound passed here is deliberately absurd: with PerShardDiff
	// it must be ignored in favor of each shard's own estimate.
	got, st, err := d.client.Sets(ctx, "ids", bob, sosr.SetConfig{Seed: 19, KnownDiff: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recovered, setutil.Canonical(alice)) {
		t.Fatal("per-shard estimation did not recover the full logical set")
	}
	checkStatsParity(t, st)
	// The unknown-d protocol runs the strata estimator per shard, so every
	// shard reports at least one attempt.
	for i, sh := range st.Shards {
		if sh.Net.Attempts < 1 {
			t.Fatalf("shard %d reports no attempts", i)
		}
	}
}

// TestCoordinatorUpdatesVisibleToFanOut: a logical mutation routed by the
// coordinator is what the next fan-out reconcile sees — identical to a
// single-instance run over the updated logical dataset.
func TestCoordinatorUpdatesVisibleToFanOut(t *testing.T) {
	ctx := context.Background()
	alice, bob := workload.PlantedSetsOfSets(23, 40, 8, 1<<32, 10)
	d := startShards(t, 3)
	if err := d.co.HostSetsOfSets("docs", alice); err != nil {
		t.Fatal(err)
	}
	added := []uint64{90_000_001, 90_000_005}
	removed := alice[7]
	if err := d.co.UpdateSetsOfSets("docs", [][]uint64{added}, [][]uint64{removed}); err != nil {
		t.Fatal(err)
	}
	updated := make([][]uint64, 0, len(alice))
	for i, cs := range alice {
		if i != 7 {
			updated = append(updated, cs)
		}
	}
	updated = append(updated, setutil.Canonical(added))
	cfg := sosr.Config{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	want, err := sosr.ReconcileSetsOfSets(updated, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := d.client.SetsOfSets(ctx, "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !setutil.EqualSetOfSets(got.Recovered, want.Recovered) {
		t.Fatal("fan-out after coordinator update diverges from single-instance run over updated data")
	}
	// Only the shards owning a touched child were bumped.
	bumped := map[int]bool{}
	for i, part := range d.topo.SplitSets([][]uint64{setutil.Canonical(added), removed}) {
		bumped[i] = len(part) > 0
	}
	for i, srv := range d.servers {
		v, err := srv.DatasetVersion("docs")
		if err != nil {
			t.Fatal(err)
		}
		if bumped[i] && v == 0 {
			t.Fatalf("owning shard %d was not updated", i)
		}
		if !bumped[i] && v != 0 {
			t.Fatalf("non-owning shard %d version bumped to %d", i, v)
		}
	}
}

// TestReplicatedCoordinatorKeepsReplicasIdentical: hosting and updates apply
// to every replica of the owning shard, so any replica can serve the shard's
// slice interchangeably.
func TestReplicatedCoordinatorKeepsReplicasIdentical(t *testing.T) {
	ctx := context.Background()
	alice := make([]uint64, 0, 600)
	for x := uint64(500); x < 1100; x++ {
		alice = append(alice, x)
	}
	bob := append(append([]uint64{}, alice[4:]...), 70_001, 70_002)
	d := startReplicated(t, 2, 2)
	if err := d.co.HostSets("ids", alice); err != nil {
		t.Fatal(err)
	}
	if err := d.co.UpdateSets("ids", []uint64{80_001, 80_002, 80_003}, []uint64{alice[0]}); err != nil {
		t.Fatal(err)
	}
	logical := setutil.ApplyDiff(alice, []uint64{80_001, 80_002, 80_003}, []uint64{alice[0]})
	// Every replica of every shard serves the identical updated slice:
	// different seeds move the rendezvous choice until both columns have
	// served, and every winner's result must be the same.
	want := setutil.Canonical(logical)
	for seed := uint64(0); seed < 4; seed++ {
		got, st, err := d.client.Sets(ctx, "ids", bob, sosr.SetConfig{Seed: seed, KnownDiff: 16})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Recovered, want) {
			t.Fatalf("seed %d: replicas disagree on the updated slice", seed)
		}
		if st.Failovers != 0 || st.Hedges != 0 {
			t.Fatalf("seed %d: unexpected failovers/hedges in a healthy deployment: %+v", seed, st)
		}
		checkStatsParity(t, st)
	}
	// Distinct seeds spread primaries: across the seeds above, both replica
	// columns of at least one shard should have served traffic.
	spread := false
	for i := range d.allLn {
		if d.allLn[i][0].n.Load() > 0 && d.allLn[i][1].n.Load() > 0 {
			spread = true
		}
	}
	if !spread {
		t.Log("note: rendezvous primaries did not spread across replicas for these seeds")
	}
}

// TestFailoverRecoversExactDifference is the chaos acceptance test: with one
// replica of each shard dead — including the would-be primary of at least
// one shard — the fan-out fails over and still recovers the exact difference
// set, with internally consistent aggregated Stats and a nonzero failover
// count.
func TestFailoverRecoversExactDifference(t *testing.T) {
	ctx := context.Background()
	alice, bob := workload.PlantedSetsOfSets(37, 60, 8, 1<<32, 12)
	d := startReplicated(t, 3, 2)
	if err := d.co.HostSetsOfSets("docs", alice); err != nil {
		t.Fatal(err)
	}
	cfg := sosr.Config{Seed: 11, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	want, err := sosr.ReconcileSetsOfSets(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Kill each shard's rendezvous primary for this seed: every shard must
	// fail over to its surviving replica.
	for i := range d.all {
		p := d.primary(i, cfg.Seed)
		d.all[i][p].Close()
		d.allLn[i][p].Close()
	}
	d.client.RetryBackoff = time.Millisecond
	got, st, err := d.client.SetsOfSets(ctx, "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !setutil.EqualSetOfSets(got.Recovered, want.Recovered) {
		t.Fatal("fan-out with dead primaries recovered a different parent set")
	}
	wantAdded, wantRemoved := setutil.CloneSets(want.Added), setutil.CloneSets(want.Removed)
	setutil.SortSets(wantAdded)
	setutil.SortSets(wantRemoved)
	if !reflect.DeepEqual(got.Added, wantAdded) || !reflect.DeepEqual(got.Removed, wantRemoved) {
		t.Fatal("difference set diverges after failover")
	}
	if st.Failovers < len(d.all) {
		t.Fatalf("expected at least %d failovers, got %d", len(d.all), st.Failovers)
	}
	for i, sh := range st.Shards {
		dead := d.topo.Replicas(i)[d.primary(i, cfg.Seed)]
		if sh.Replica == dead {
			t.Fatalf("shard %d reports the dead replica %s as its winner", i, dead)
		}
		if sh.Attempts < 2 {
			t.Fatalf("shard %d: %d attempts despite a dead primary", i, sh.Attempts)
		}
	}
	checkStatsParity(t, st)
}

// TestFailoverMidSession: a replica that dies after the session is already
// in flight (conn severed mid-protocol) is retried on the next replica and
// the reconcile still completes exactly.
func TestFailoverMidSession(t *testing.T) {
	ctx := context.Background()
	alice := make([]uint64, 0, 500)
	for x := uint64(100); x < 600; x++ {
		alice = append(alice, x)
	}
	bob := append(append([]uint64{}, alice[3:]...), 40_001, 40_002)
	d := startReplicated(t, 1, 2)
	if err := d.co.HostSets("ids", alice); err != nil {
		t.Fatal(err)
	}
	cfg := sosr.SetConfig{Seed: 3, KnownDiff: 8}
	// Sever the primary's connections mid-session: the replica dies under
	// the client after the handshake bytes are already in flight, so the
	// failure is an IO error on an established session, not a refused dial.
	d.client.RetryBackoff = time.Millisecond
	d.allLn[0][d.primary(0, cfg.Seed)].killAfter.Store(1)
	got, st, err := d.client.Sets(ctx, "ids", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recovered, setutil.Canonical(alice)) {
		t.Fatal("failover reconcile did not recover the hosted set")
	}
	if st.Failovers == 0 {
		t.Fatal("no failover recorded despite a dead primary")
	}
	checkStatsParity(t, st)
}

// TestHedgedRequestBeatsStalledPrimary is the tail-latency acceptance test: a
// deliberately stalled primary loses the race to a hedged second replica, the
// client takes the hedge's answer, and the win is visible both in Stats and
// in the scraped Prometheus metrics.
func TestHedgedRequestBeatsStalledPrimary(t *testing.T) {
	ctx := context.Background()
	alice := make([]uint64, 0, 400)
	for x := uint64(2000); x < 2400; x++ {
		alice = append(alice, x)
	}
	bob := append(append([]uint64{}, alice[2:]...), 60_001)
	d := startReplicated(t, 1, 2)
	if err := d.co.HostSets("ids", alice); err != nil {
		t.Fatal(err)
	}
	d.client.HedgeDelay = 20 * time.Millisecond
	reg := obs.NewRegistry()
	d.client.Obs = reg
	// Stall the rendezvous primary long enough that the hedge must win.
	const seed = 9
	p := d.primary(0, seed)
	d.allLn[0][p].stall.Store(int64(2 * time.Second))
	got, st, err := d.client.Sets(ctx, "ids", bob, sosr.SetConfig{Seed: seed, KnownDiff: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recovered, setutil.Canonical(alice)) {
		t.Fatal("hedged reconcile did not recover the hosted set")
	}
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges=%d hedgeWins=%d, want 1/1 (stalled primary must lose)", st.Hedges, st.HedgeWins)
	}
	if winner := st.Shards[0].Replica; winner == d.topo.Replicas(0)[p] {
		t.Fatalf("stalled primary %s reported as the winner", winner)
	}
	checkStatsParity(t, st)

	// The win is exported: scrape the client registry over HTTP exactly as a
	// deployment would.
	ops := httptest.NewServer(reg.Handler())
	defer ops.Close()
	samples := scrape(t, ops.URL)
	if v := samples[`sosr_shard_hedges_total{outcome="launched"}`]; v != 1 {
		t.Fatalf("hedges launched counter %v, want 1", v)
	}
	if v := samples[`sosr_shard_hedges_total{outcome="win"}`]; v != 1 {
		t.Fatalf("hedge-win counter %v, want 1", v)
	}
}

// TestCancelledFanOutReturnsPromptly: a caller's cancel ends a fan-out over
// stalled shards at once, hedged or not — each session severs its connection
// — with context.Canceled, and leaves none of the fan-out's goroutines behind.
// The stall outlasts the one-second bound, so only a severed session returns
// within it.
func TestCancelledFanOutReturnsPromptly(t *testing.T) {
	alice := make([]uint64, 0, 200)
	for x := uint64(1000); x < 1200; x++ {
		alice = append(alice, x)
	}
	bob := append(append([]uint64{}, alice[2:]...), 90_001)
	const stall = 1500 * time.Millisecond
	for _, hedge := range []time.Duration{0, 10 * time.Millisecond} {
		t.Run("hedge="+hedge.String(), func(t *testing.T) {
			d := startReplicated(t, 2, 2)
			if err := d.co.HostSets("ids", alice); err != nil {
				t.Fatal(err)
			}
			d.client.HedgeDelay = hedge
			for _, lns := range d.allLn {
				for _, ln := range lns {
					ln.stall.Store(int64(stall))
				}
			}
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(50*time.Millisecond, cancel)
			t0 := time.Now()
			_, _, err := d.client.Sets(ctx, "ids", bob, sosr.SetConfig{Seed: 5, KnownDiff: 8})
			if took := time.Since(t0); took > time.Second {
				t.Fatalf("a fan-out cancelled at 50 ms returned after %v", took)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled fan-out returned %v, want context.Canceled", err)
			}
			// The servers' goroutines sleep out the stall on their severed
			// connections; the fan-out's own, hedges included, must be gone
			// by the time those are.
			deadline := time.Now().Add(stall + 5*time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the cancelled fan-out, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestStaleEpochRefresh: a client holding yesterday's topology is rejected
// with ErrStaleEpoch; with a Refresh hook it re-resolves, re-splits, and the
// reconcile succeeds against the new epoch transparently.
func TestStaleEpochRefresh(t *testing.T) {
	ctx := context.Background()
	alice := make([]uint64, 0, 300)
	for x := uint64(300); x < 600; x++ {
		alice = append(alice, x)
	}
	bob := append(append([]uint64{}, alice[2:]...), 50_001)
	d := startShards(t, 2)
	// Re-host everything at epoch 2: the deployment moved on while the
	// client still holds the epoch-1 topology it dialed with.
	topo2 := d.topoAt(t, 2)
	co2, err := NewCoordinator(topo2, d.all)
	if err != nil {
		t.Fatal(err)
	}
	if err := co2.HostSets("ids", alice); err != nil {
		t.Fatal(err)
	}
	cfg := sosr.SetConfig{Seed: 21, KnownDiff: 8}

	// Without a Refresh hook: the stale client is told exactly why.
	if _, _, err := d.client.Sets(ctx, "ids", bob, cfg); !errors.Is(err, sosrnet.ErrStaleEpoch) {
		t.Fatalf("stale client not rejected with ErrStaleEpoch: %v", err)
	}

	// With a Refresh hook: one transparent re-resolve and the reconcile
	// lands on the new epoch.
	var refreshed atomic.Int64
	reg := obs.NewRegistry()
	d.client.Obs = reg
	d.client.Refresh = func(ctx context.Context) (*Topology, error) {
		refreshed.Add(1)
		return topo2, nil
	}
	got, st, err := d.client.Sets(ctx, "ids", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recovered, setutil.Canonical(alice)) {
		t.Fatal("post-refresh reconcile did not recover the hosted set")
	}
	checkStatsParity(t, st)
	if refreshed.Load() != 1 {
		t.Fatalf("Refresh called %d times, want 1", refreshed.Load())
	}
	if d.client.Topology().Epoch() != 2 {
		t.Fatalf("client topology epoch %d after refresh, want 2", d.client.Topology().Epoch())
	}
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sosr_shard_refreshes_total 1") {
		t.Fatalf("refresh counter missing:\n%s", sb.String())
	}
	// The next reconcile uses the refreshed topology without another call.
	if got, _, err = d.client.Sets(ctx, "ids", bob, cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recovered, setutil.Canonical(alice)) {
		t.Fatal("reconcile after refresh did not recover the hosted set")
	}
	if refreshed.Load() != 1 {
		t.Fatalf("Refresh re-called on a fresh topology (%d calls)", refreshed.Load())
	}
}

// TestReorderedTopologyRefused: a shard is its position, so the same
// addresses listed in another shard order are a different deployment — every
// server would be asked for another position's slice — and the handshake
// refuses it as misrouted, as it does a topology of another shard count over
// the same addresses.
func TestReorderedTopologyRefused(t *testing.T) {
	ctx := context.Background()
	alice, bob := workload.PlantedSetsOfSets(29, 30, 6, 1<<32, 8)
	d := startShards(t, 3)
	if err := d.co.HostSetsOfSets("docs", alice); err != nil {
		t.Fatal(err)
	}
	cfg := sosr.Config{Seed: 1, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	if _, _, err := d.client.SetsOfSets(ctx, "docs", bob, cfg); err != nil {
		t.Fatal(err)
	}
	for name, lists := range map[string][][]string{
		"reordered": {d.topo.Replicas(2), d.topo.Replicas(0), d.topo.Replicas(1)},
		"merged": {
			append(append([]string{}, d.topo.Replicas(0)...), d.topo.Replicas(1)...),
			d.topo.Replicas(2),
		},
	} {
		topo, err := NewTopology(1, lists)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(topo)
		if err != nil {
			t.Fatal(err)
		}
		c.Timeout = 30 * time.Second
		if _, _, err := c.SetsOfSets(ctx, "docs", bob, cfg); !errors.Is(err, sosrnet.ErrMisrouted) {
			t.Fatalf("%s topology not rejected as misrouted: %v", name, err)
		}
	}
}

// TestShardCoinsArePositional: a shard's coins read the logical seed and the
// shard's position, nothing else, so topologies of equal shard count draw the
// same coins whatever their addresses; distinct positions and seeds draw
// distinct coins.
func TestShardCoinsArePositional(t *testing.T) {
	if shardSeed(42, 0) == shardSeed(42, 1) || shardSeed(42, 1) == shardSeed(43, 1) {
		t.Fatal("shard coins collide across positions or seeds")
	}
}

func TestDialRejectsBadTopologies(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := SingleReplica(1, nil); err == nil {
		t.Fatal("empty address list accepted")
	}
	if _, err := SingleReplica(1, []string{"a:1", "a:1"}); err == nil {
		t.Fatal("duplicate address accepted")
	}
	if _, err := NewTopology(1, [][]string{{"a:1", "a:1"}}); err == nil {
		t.Fatal("duplicate replica within a shard accepted")
	}
	topo, err := SingleReplica(1, []string{"a:1", "b:2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(topo, [][]*sosrnet.Server{{sosrnet.NewServer()}}); err == nil {
		t.Fatal("server/shard count mismatch accepted")
	}
	if _, err := NewCoordinator(topo, [][]*sosrnet.Server{{sosrnet.NewServer()}, {sosrnet.NewServer(), sosrnet.NewServer()}}); err == nil {
		t.Fatal("server/replica count mismatch accepted")
	}
}

// TestConcurrentFanOuts: several logical reconciles in flight at once across
// the same replicated deployment (run under -race in CI).
func TestConcurrentFanOuts(t *testing.T) {
	ctx := context.Background()
	alice, bob := workload.PlantedSetsOfSets(31, 40, 8, 1<<32, 10)
	d := startReplicated(t, 3, 2)
	if err := d.co.HostSetsOfSets("docs", alice); err != nil {
		t.Fatal(err)
	}
	want, err := sosr.ReconcileSetsOfSets(alice, bob, sosr.Config{Seed: 0, Protocol: sosr.ProtocolCascade, KnownDiff: 24})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := sosr.Config{Seed: uint64(w), Protocol: sosr.ProtocolCascade, KnownDiff: 24}
			got, _, err := d.client.SetsOfSets(ctx, "docs", bob, cfg)
			if err != nil {
				errs <- fmt.Errorf("worker %d: %w", w, err)
				return
			}
			if !setutil.EqualSetOfSets(got.Recovered, want.Recovered) {
				errs <- fmt.Errorf("worker %d: wrong recovery", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
