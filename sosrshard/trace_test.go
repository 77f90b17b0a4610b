package sosrshard

import (
	"context"
	"math"
	"strconv"
	"testing"
	"time"

	"sosr"
	"sosr/internal/obs"
	"sosr/internal/setutil"
	"sosr/internal/workload"
	"sosr/sosrnet"
)

// findSpans walks span trees depth-first and returns every span with name.
func findSpans(roots []*obs.SpanDump, name string) []*obs.SpanDump {
	var out []*obs.SpanDump
	for _, r := range roots {
		if r.Name == name {
			out = append(out, r)
		}
		out = append(out, findSpans(r.Children, name)...)
	}
	return out
}

func spanAttrInt(t *testing.T, sp *obs.SpanDump, key string) int64 {
	t.Helper()
	v, ok := sp.Attrs[key]
	if !ok {
		t.Fatalf("span %q: missing attr %q (attrs: %v)", sp.Name, key, sp.Attrs)
	}
	n, ok := v.(int64)
	if !ok {
		t.Fatalf("span %q attr %q: unexpected type %T", sp.Name, key, v)
	}
	return n
}

// TestTracedFailoverSingleTrace is the distributed-tracing acceptance test:
// a 3-shard × 2-replica fan-out with one killed primary produces ONE trace
// whose span tree covers the fan-out, the failed attempt on the dead replica,
// the winning attempts, and — joined via the hello's trace context — every
// shard server's session span. The reconcile root's wire attributes must
// equal the returned Stats exactly.
//
// It is also the test of a refused dial, which TestModel's grid does not
// reach (its kill-replica step severs sessions in flight): the primary's
// server and listener are closed before the fan-out, so its first attempt
// cannot connect, and the shard must fail over to the other replica and
// recover the exact difference.
func TestTracedFailoverSingleTrace(t *testing.T) {
	ctx := context.Background()
	alice, bob := workload.PlantedSetsOfSets(41, 60, 8, 1<<32, 12)
	d := startReplicated(t, 3, 2)
	for _, group := range d.all {
		for _, srv := range group {
			srv.Trace = &obs.Tracer{} // sample 0: records joined traces only
		}
	}
	if err := d.co.HostSetsOfSets("docs", alice); err != nil {
		t.Fatal(err)
	}
	cfg := sosr.Config{Seed: 17, Protocol: sosr.ProtocolCascade, KnownDiff: 24}

	// Kill one shard's rendezvous primary: that shard must fail over, and the
	// dead attempt must appear in the trace.
	const killedShard = 1
	deadReplica := d.primary(killedShard, cfg.Seed)
	d.all[killedShard][deadReplica].Close()
	d.allLn[killedShard][deadReplica].Close()

	d.client.Trace = &obs.Tracer{SampleRate: 1}
	reg := obs.NewRegistry()
	d.client.Obs = reg
	got, st, err := d.client.SetsOfSets(ctx, "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sosr.ReconcileSetsOfSets(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !setutil.EqualSetOfSets(got.Recovered, want.Recovered) || !setutil.EqualSetOfSets(got.Added, want.Added) || !setutil.EqualSetOfSets(got.Removed, want.Removed) {
		t.Fatal("fan-out with a dead primary recovered another difference")
	}
	deadAddr := d.topo.Replicas(killedShard)[deadReplica]
	if sh := st.Shards[killedShard]; st.Failovers == 0 || sh.Attempts < 2 || sh.Replica == deadAddr {
		t.Fatalf("shard %d: its primary is dead, yet %d failovers and %d attempts won on %s", killedShard, st.Failovers, sh.Attempts, sh.Replica)
	}

	// The failed attempt flags the trace, so it lands in the flagged ring.
	flagged := d.client.Trace.Flagged()
	if len(flagged) != 1 {
		t.Fatalf("client tracer flagged %d traces, want 1 (recent: %d)",
			len(flagged), len(d.client.Trace.Recent()))
	}
	tid, err := obs.ParseTraceID(flagged[0].Trace)
	if err != nil {
		t.Fatal(err)
	}
	dump := d.client.Trace.Get(tid)
	if dump == nil {
		t.Fatal("flagged trace vanished from ring")
	}
	if !dump.Failed {
		t.Error("trace with a dead-replica attempt not marked failed")
	}

	roots := findSpans(dump.Roots, "shard/reconcile")
	if len(roots) != 1 {
		t.Fatalf("trace has %d shard/reconcile roots, want 1", len(roots))
	}
	root := roots[0]

	// Root wire accounting must equal the returned Stats exactly.
	for _, w := range []struct {
		key  string
		want int64
	}{
		{"proto_bytes", int64(st.Protocol.TotalBytes)},
		{"wire_in", st.WireIn},
		{"wire_out", st.WireOut},
		{"overhead", st.Overhead},
		{"attempts", int64(st.Attempts)},
		{"failovers", int64(st.Failovers)},
		{"hedges", int64(st.Hedges)},
	} {
		if got := spanAttrInt(t, root, w.key); got != w.want {
			t.Errorf("reconcile root %s=%d, want %d (Stats: %+v)", w.key, got, w.want, st)
		}
	}

	// One fan-out span per shard, all under the single root, each as long as
	// the shard's latency observation: one clock pair stamps both.
	fanouts := findSpans([]*obs.SpanDump{root}, "shard/fanout")
	if len(fanouts) != 3 {
		t.Fatalf("trace has %d shard/fanout spans under the root, want 3", len(fanouts))
	}
	var killed *obs.SpanDump
	for _, f := range fanouts {
		shard := spanAttrInt(t, f, "shard")
		if shard == killedShard {
			killed = f
		}
		h := reg.GetHistogram("sosr_shard_session_seconds", strconv.FormatInt(shard, 10))
		if h == nil {
			t.Fatalf("shard %d: no sosr_shard_session_seconds series", shard)
		}
		if ms := h.Sum() * 1e3; h.Count() != 1 || math.Abs(ms-f.Ms) > 1e-6 {
			t.Errorf("shard %d: %d sosr_shard_session_seconds observations sum to %.6f ms, its shard/fanout span is %.6f ms", shard, h.Count(), ms, f.Ms)
		}
	}
	if killed == nil {
		t.Fatalf("no fanout span for shard %d", killedShard)
	}

	// The killed shard's fan-out shows the failover: a failed attempt on the
	// dead replica plus a winning attempt carrying the client session.
	attempts := findSpans(killed.Children, "shard/attempt")
	if len(attempts) < 2 {
		t.Fatalf("killed shard's fanout has %d attempt spans, want >= 2", len(attempts))
	}
	var sawDead, sawWinner bool
	for _, a := range attempts {
		replica, _ := a.Attrs["replica"].(string)
		if replica == deadAddr && a.Err != "" {
			sawDead = true
		}
		if a.Err == "" && len(findSpans(a.Children, "client/session")) == 1 {
			sawWinner = true
		}
	}
	if !sawDead {
		t.Errorf("no failed attempt span for dead replica %s in: %+v", deadAddr, attempts)
	}
	if !sawWinner {
		t.Error("no successful attempt span carrying a client/session span")
	}

	// Every shard's winning server joined the same trace: its tracer holds a
	// server/session span under this trace ID. Session spans finish after the
	// client returns, so poll.
	for i, sh := range st.Shards {
		var winner *sosrnet.Server
		for j, addr := range d.topo.Replicas(i) {
			if addr == sh.Replica {
				winner = d.all[i][j]
			}
		}
		if winner == nil {
			t.Fatalf("shard %d: winner %s not in topology", i, sh.Replica)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if sd := winner.Trace.Get(tid); sd != nil && len(findSpans(sd.Roots, "server/session")) > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d winner %s never recorded trace %s", i, sh.Replica, tid)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}
