package sosrshard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"sosr"
	"sosr/internal/obs"
	"sosr/internal/setutil"
	"sosr/internal/workload"
	"sosr/internal/worktest"
	"sosr/sosrnet"
)

// shardDeployment is a loopback replicated deployment: shards × replicas
// servers on counting, fault-injecting listeners, a coordinator over them,
// and a fan-out client. servers holds replica 0 of each shard (the whole
// deployment when replicas == 1).
type shardDeployment struct {
	topo     *Topology
	co       *Coordinator
	client   *Client
	servers  []*sosrnet.Server // replica 0 of each shard
	all      [][]*sosrnet.Server
	allLn    [][]*worktest.Listener
	sessions worktest.Sessions // finished server-side sessions (log lines)
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
		var lns []*worktest.Listener
		for j := 0; j < replicas; j++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cl := &worktest.Listener{Listener: ln}
			srv := sosrnet.NewServer()
			srv.Logger = d.sessions.Logger()
			lists[i] = append(lists[i], ln.Addr().String())
			group = append(group, srv)
			lns = append(lns, cl)
			serveWg.Add(1)
			go func() { defer serveWg.Done(); srv.Serve(cl) }()
		}
		d.all = append(d.all, group)
		d.allLn = append(d.allLn, lns)
		d.servers = append(d.servers, group[0])
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
	for i, sh := range st.Shards {
		if sh.Net.WireIn+sh.Net.WireOut != int64(sh.Net.Protocol.TotalBytes)+sh.Net.Overhead {
			t.Fatalf("shard %d: wire accounting inconsistent: %+v", i, sh.Net)
		}
		in += sh.Net.WireIn
		out += sh.Net.WireOut
		overhead += sh.Net.Overhead
		bytes += sh.Net.Protocol.TotalBytes
	}
	if in != st.WireIn || out != st.WireOut || overhead != st.Overhead || bytes != st.Protocol.TotalBytes {
		t.Fatalf("itemized shards do not sum to the aggregate: %+v", st)
	}
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
	d.allLn[0][p].Stall.Store(int64(2 * time.Second))
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
					ln.Stall.Store(int64(stall))
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
