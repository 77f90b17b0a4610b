package sosrnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"sosr"
	"sosr/internal/obs"
)

// scrapeMetrics fetches /metrics and flattens every sample into a map keyed
// by the full sample name (labels included, exactly as exposed).
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	return parseProm(t, resp.Body)
}

// registrySamples flattens a registry the way scrapeMetrics flattens a scrape.
func registrySamples(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return parseProm(t, &buf)
}

func parseProm(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
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

// TestOpsEndpointEndToEnd runs one reconcile against a live server and
// asserts the scraped ops surface: the byte-parity acceptance criterion
// (scraped wire counters == the client's itemized NetStats, direction
// mirrored), session/stage series, health, and the dataset summary.
func TestOpsEndpointEndToEnd(t *testing.T) {
	alice, bob := sosPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	ops := httptest.NewServer(srv.OpsHandler())
	defer ops.Close()

	resp, err := http.Get(ops.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ops.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "docs" || infos[0].Kind != KindSetsOfSets ||
		infos[0].Items != len(alice) || infos[0].Version != 0 {
		t.Fatalf("datasets summary: %+v", infos)
	}

	cfg := sosr.Config{Seed: 99, Protocol: sosr.ProtocolCascade, KnownDiff: 24}
	_, ns, err := Dial(addr).SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The server records session metrics after reading the client's closing
	// frame, which races the client's return: poll until the session lands.
	var samples map[string]float64
	waitFor(t, "session metrics", func() bool {
		samples = scrapeMetrics(t, ops.URL)
		return samples[`sosr_sessions_total{kind="sos",proto="cascade",status="ok"}`] == 1
	})

	// Byte parity: the server's wire-in is what the client wrote, and vice
	// versa — the acceptance criterion ties /metrics to the NetStats report.
	if got := samples[`sosr_wire_bytes_total{proto="cascade",dir="in"}`]; got != float64(ns.WireOut) {
		t.Fatalf("wire in %v != client wire out %d", got, ns.WireOut)
	}
	if got := samples[`sosr_wire_bytes_total{proto="cascade",dir="out"}`]; got != float64(ns.WireIn) {
		t.Fatalf("wire out %v != client wire in %d", got, ns.WireIn)
	}
	if got := samples[`sosr_protocol_bytes_total{proto="cascade",party="alice"}`]; got != float64(ns.Protocol.AliceBytes) {
		t.Fatalf("alice protocol bytes %v != %d", got, ns.Protocol.AliceBytes)
	}
	if got := samples[`sosr_protocol_bytes_total{proto="cascade",party="bob"}`]; got != float64(ns.Protocol.BobBytes) {
		t.Fatalf("bob protocol bytes %v != %d", got, ns.Protocol.BobBytes)
	}
	if got := samples[`sosr_sessions_started_total{kind="sos"}`]; got != 1 {
		t.Fatalf("sessions started %v", got)
	}
	for _, stage := range []string{"hello", "encode", "transfer", "done"} {
		if got := samples[`sosr_stage_seconds_count{stage="`+stage+`"}`]; got < 1 {
			t.Fatalf("stage %q never observed: %v", stage, got)
		}
	}
	if got := samples[`sosr_enccache_events_total{event="miss"}`]; got < 1 {
		t.Fatalf("cache miss counter %v (cache on by default)", got)
	}
	if got := samples[`sosr_dataset_items{dataset="docs",shard=""}`]; got != float64(len(alice)) {
		t.Fatalf("dataset items gauge %v != %d", got, len(alice))
	}
	if got := samples[`sosr_sessions_active`]; got != 0 {
		t.Fatalf("active sessions gauge %v after session end", got)
	}

	// A mutation must show up in the version gauge on the next scrape.
	if err := srv.UpdateSetsOfSets("docs", [][]uint64{{1, 2, 3, 9999}}, nil); err != nil {
		t.Fatal(err)
	}
	samples = scrapeMetrics(t, ops.URL)
	if got := samples[`sosr_dataset_version{dataset="docs",shard=""}`]; got != 1 {
		t.Fatalf("dataset version gauge %v after update", got)
	}

	// pprof is mounted on the same private mux.
	resp, err = http.Get(ops.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: %d", resp.StatusCode)
	}
}

// TestHandshakeRejectMetrics checks that sessions dropped before serving are
// counted by reason rather than vanishing.
func TestHandshakeRejectMetrics(t *testing.T) {
	alice, bob := setPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	ops := httptest.NewServer(srv.OpsHandler())
	defer ops.Close()
	c := Dial(addr)
	if _, _, err := c.Sets(context.Background(), "nope", bob, sosr.SetConfig{Seed: 1, KnownDiff: 8}); err == nil {
		t.Fatal("unknown dataset succeeded")
	}
	waitFor(t, "reject metrics", func() bool {
		samples := scrapeMetrics(t, ops.URL)
		return samples[`sosr_handshake_rejects_total{reason="unknown_dataset"}`] == 1
	})
}
