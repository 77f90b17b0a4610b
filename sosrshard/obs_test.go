package sosrshard

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"sosr"
	"sosr/internal/obs"
	"sosr/internal/workload"
)

// scrape flattens one shard's /metrics into a map keyed by the full sample
// name (labels included, exactly as exposed).
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardedMetricsParity is the observability acceptance test: after one
// sharded reconcile, the wire-byte counters scraped from every shard's
// /metrics endpoint sum to exactly the itemized per-shard Stats the client
// reports (directions mirrored: server in == client out). Client fan-out and
// coordinator routing metrics land in their own registries.
func TestShardedMetricsParity(t *testing.T) {
	alice, bob := workload.PlantedSetsOfSets(41, 60, 8, 1<<32, 12)
	d := startShards(t, 3)

	opsURLs := make([]string, len(d.servers))
	for i, srv := range d.servers {
		srv.Obs = obs.NewRegistry()
		ops := httptest.NewServer(srv.OpsHandler())
		defer ops.Close()
		opsURLs[i] = ops.URL
	}
	clientReg := obs.NewRegistry()
	d.client.Obs = clientReg
	d.co.Obs = clientReg

	if err := d.co.HostSetsOfSets("docs", alice); err != nil {
		t.Fatal(err)
	}
	cfg := sosr.Config{Seed: 13, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	_, st, err := d.client.SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.sessions.Wait(t, 3)

	// Per shard and in aggregate: scraped server counters == client's
	// itemized NetStats, directions mirrored.
	var scrapedIn, scrapedOut, clientIn, clientOut float64
	for i, sh := range st.Shards {
		samples := scrape(t, opsURLs[i])
		in := samples[`sosr_wire_bytes_total{proto="cascade",dir="in"}`]
		out := samples[`sosr_wire_bytes_total{proto="cascade",dir="out"}`]
		if in != float64(sh.Net.WireOut) || out != float64(sh.Net.WireIn) {
			t.Fatalf("shard %d: scraped wire in/out %v/%v != client out/in %d/%d",
				i, in, out, sh.Net.WireOut, sh.Net.WireIn)
		}
		if got := samples[`sosr_sessions_total{kind="sos",proto="cascade",status="ok"}`]; got != 1 {
			t.Fatalf("shard %d: sessions_total %v, want 1", i, got)
		}
		scrapedIn += in
		scrapedOut += out
		clientIn += float64(sh.Net.WireIn)
		clientOut += float64(sh.Net.WireOut)
	}
	if scrapedIn != clientOut || scrapedOut != clientIn {
		t.Fatalf("aggregate parity broken: scraped in/out %v/%v vs client out/in %v/%v",
			scrapedIn, scrapedOut, clientOut, clientIn)
	}
	if scrapedIn != float64(st.WireOut) || scrapedOut != float64(st.WireIn) {
		t.Fatalf("aggregate Stats disagree with scraped totals: %+v", st)
	}

	// Client-side fan-out metrics: one fan-out, three per-shard sessions,
	// one straggler-spread observation.
	if got := clientReg.GetHistogram("sosr_shard_straggler_seconds"); got == nil || got.Count() != 1 {
		t.Fatalf("straggler histogram: %+v", got)
	}
	for i := range d.servers {
		h := clientReg.GetHistogram("sosr_shard_session_seconds", strconv.Itoa(i))
		if h == nil || h.Count() != 1 {
			t.Fatalf("shard %d session histogram missing or empty", i)
		}
	}

	// Coordinator routing metrics: a mutation touching one child set bumps
	// exactly the owning shard's counter.
	added := []uint64{90_000_123, 90_000_456}
	if err := d.co.UpdateSetsOfSets("docs", [][]uint64{added}, nil); err != nil {
		t.Fatal(err)
	}
	// Fan-out counter and update counter live in the shared client registry;
	// render it once and check both.
	var sb strings.Builder
	if err := clientReg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `sosr_shard_fanouts_total{status="ok"} 1`) {
		t.Fatalf("fan-out counter missing:\n%s", text)
	}
	if !strings.Contains(text, "sosr_shard_updates_total") {
		t.Fatalf("coordinator update counter missing:\n%s", text)
	}
}
