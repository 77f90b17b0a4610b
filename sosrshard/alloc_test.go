package sosrshard

import (
	"context"
	"testing"

	"sosr/internal/raceflag"
	"sosr/internal/shardmap"
	"sosr/sosrnet"
)

// TestFanOutAllocBudget: the bookkeeping of one fan-out over two shards,
// around sessions stubbed out to allocate nothing. The shards' outcomes,
// errors and times share one slice, the itemized Stats is sized to the shard
// count up front, and the topology view is a value, where they were three
// slices, an append-grown list and a view per reconcile: 30 objects, now 26.
// What is left is the result list, the Stats, and per shard its goroutine
// and the attempt engine's context, channel and goroutine, which failover and
// hedging need. The budget is one object over the measurement.
func TestFanOutAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	topo, err := SingleReplica(1, []string{"127.0.0.1:1", "127.0.0.1:2"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(topo)
	if err != nil {
		t.Fatal(err)
	}
	ns := &sosrnet.NetStats{Attempts: 1}
	ctx := context.Background()
	run := func() {
		n, st, err := reconcile(ctx, c, "docs", "sos", 7,
			func(*shardmap.Topology) [][]int { return [][]int{{0}, {1}} },
			func(_ context.Context, _ *sosrnet.Client, part []int, _ uint64) (int, *sosrnet.NetStats, error) {
				return part[0], ns, nil
			},
			func(parts []int, _ *Stats) int { return len(parts) })
		if err != nil || n != 2 || len(st.Shards) != 2 || st.Attempts != 2 {
			t.Fatalf("stub fan-out: %d parts, %+v, %v", n, st, err)
		}
	}
	run()
	got := testing.AllocsPerRun(50, run)
	t.Logf("fan-out bookkeeping over 2 shards: %.0f allocs (was 30)", got)
	if got > 27 {
		t.Fatalf("a fan-out over 2 shards allocates %.0f objects of bookkeeping, budget 27", got)
	}
}
