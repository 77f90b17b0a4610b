package sosrshard

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"sosr"
	"sosr/internal/workload"
	"sosr/sosrnet"
)

// BenchmarkShardedReconcile measures whole fan-out reconciles per second
// against a loopback sharded deployment (the hot-dataset regime: the
// per-shard encode caches are warm after the first iteration).
func BenchmarkShardedReconcile(b *testing.B) {
	alice, bob := workload.PlantedSetsOfSets(17, 200, 10, 1<<32, 16)
	for _, shards := range []int{1, 3} {
		b.Run(fmt.Sprintf("%dshards", shards), func(b *testing.B) {
			client, co := startQuiet(b, shards, 1)
			if err := co.HostSetsOfSets("docs", alice); err != nil {
				b.Fatal(err)
			}
			cfg := sosr.Config{Seed: 7, Protocol: sosr.ProtocolCascade, KnownDiff: 32}
			if _, _, err := client.SetsOfSets(context.Background(), "docs", bob, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := client.SetsOfSets(context.Background(), "docs", bob, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// startQuiet builds a shards × replicas loopback deployment at epoch 1 whose
// servers log nothing, so what a measurement counts is the fan-out and its
// sessions rather than a test's log handler (startReplicated counts every
// server's session log line).
func startQuiet(tb testing.TB, shards, replicas int) (*Client, *Coordinator) {
	tb.Helper()
	lists := make([][]string, shards)
	groups := make([][]*sosrnet.Server, shards)
	for i := range groups {
		for range replicas {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				tb.Fatal(err)
			}
			srv := sosrnet.NewServer()
			go srv.Serve(ln)
			tb.Cleanup(func() { srv.Close() })
			lists[i] = append(lists[i], ln.Addr().String())
			groups[i] = append(groups[i], srv)
		}
	}
	topo, err := NewTopology(1, lists)
	if err != nil {
		tb.Fatal(err)
	}
	co, err := NewCoordinator(topo, groups)
	if err != nil {
		tb.Fatal(err)
	}
	client, err := Dial(topo)
	if err != nil {
		tb.Fatal(err)
	}
	client.Timeout = 60 * time.Second
	tb.Cleanup(func() { client.Close() })
	return client, co
}
