package sosrshard

import (
	"context"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"sosr"
	"sosr/internal/raceflag"
	"sosr/internal/shardmap"
	"sosr/internal/workload"
	"sosr/sosrnet"
)

// stubFanOut returns one fan-out over n shards around sessions stubbed out to
// allocate nothing, split into n one-element parts; session, when set, runs
// inside each of them.
func stubFanOut(t *testing.T, n int, session func()) func() {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:" + strconv.Itoa(i+1)
	}
	topo, err := SingleReplica(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(topo)
	if err != nil {
		t.Fatal(err)
	}
	ns := &sosrnet.NetStats{Attempts: 1}
	ctx := context.Background()
	return func() {
		got, st, err := reconcile(ctx, c, "docs", "sos", 7,
			func(*shardmap.Topology) [][]int {
				parts := make([][]int, n)
				for i := range parts {
					parts[i] = []int{i}
				}
				return parts
			},
			func(_ context.Context, _ *sosrnet.Client, part []int, _ uint64) (int, *sosrnet.NetStats, error) {
				if session != nil {
					session()
				}
				return part[0], ns, nil
			},
			func(parts []int, _ *Stats) int { return len(parts) })
		if err != nil || got != n || len(st.Shards) != n || st.Attempts != n {
			t.Fatalf("stub fan-out: %d parts, %+v, %v", got, st, err)
		}
	}
}

// TestFanOutAllocBudget: the bookkeeping of one fan-out over two shards,
// around sessions stubbed out to allocate nothing. A shard's attempts run in
// order on the shard's own goroutine under the caller's context, and the last
// shard runs on the caller's, so an unhedged shard has no context, channel or
// goroutine of its own; a one-replica shard's replica order is shared. What is
// left is the stub's three parts, the run list, the Stats and its
// itemization, the shards' results, the fan-out's closures and wait group,
// and the first shard's goroutine: 12 objects, where an attempt engine per
// shard made it 26 (and three slices and a view per reconcile, 30). The
// budget is one object over the measurement.
func TestFanOutAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	run := stubFanOut(t, 2, nil)
	run()
	got := testing.AllocsPerRun(50, run)
	t.Logf("fan-out bookkeeping over 2 shards: %.0f allocs (was 26, was 30)", got)
	if got > 13 {
		t.Fatalf("a fan-out over 2 shards allocates %.0f objects of bookkeeping, budget 13", got)
	}
}

// TestFanOutGoroutines: a fan-out over n unhedged shards runs n - 1
// goroutines besides the caller's, one per shard but the last; every shard's
// session runs on its shard's goroutine, not on one started per attempt.
func TestFanOutGoroutines(t *testing.T) {
	for _, n := range []int{2, 3} {
		var mu sync.Mutex
		var base, most int
		run := stubFanOut(t, n, func() {
			mu.Lock()
			most = max(most, runtime.NumGoroutine()-base)
			mu.Unlock()
		})
		base = runtime.NumGoroutine()
		run()
		if most > n-1 {
			t.Errorf("a fan-out over %d shards ran %d goroutines beside the caller's, want at most %d", n, most, n-1)
		}
	}
}

// fanOutBudgets are the objects one warm fan-out over two shards of a hosted
// sets-of-sets may allocate, on the client and both servers together, with
// both caches hit. The unhedged row is 15 % over what it measured in ten runs
// (29, of which the two shard sessions are 12), where an attempt engine per
// shard, and the context.AfterFunc its cancellable context made each session
// register, made it 55. The hedged row, 2 replicas a shard and a hedge that
// never fires, runs the race on every shard; its budget is what it measured
// while every shard ran the engine (67; it measures 63), so racing a hedge
// cannot grow either.
var fanOutBudgets = []struct {
	name     string
	replicas int
	hedge    time.Duration
	budget   float64
}{
	{"unhedged", 1, 0, 33},
	{"hedged", 2, time.Minute, 67},
}

func TestFanOutSessionAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds buffers and workspaces under the race detector")
	}
	alice, bob := workload.PlantedSetsOfSets(17, 200, 10, 1<<32, 16)
	cfg := sosr.Config{Seed: 7, Protocol: sosr.ProtocolCascade, KnownDiff: 32}
	for _, row := range fanOutBudgets {
		client, co := startQuiet(t, 2, row.replicas)
		if err := co.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
		client.HedgeDelay = row.hedge
		run := func() {
			if _, _, err := client.SetsOfSets(context.Background(), "docs", bob, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // connections and both caches
		gc := debug.SetGCPercent(-1)
		got := testing.AllocsPerRun(20, run)
		debug.SetGCPercent(gc)
		t.Logf("%s fan-out over 2 shards: %.0f allocs (budget %.0f)", row.name, got, row.budget)
		if got > row.budget {
			t.Errorf("%s: a warm fan-out over 2 shards allocates %.0f objects, budget %.0f", row.name, got, row.budget)
		}
	}
}
