package sosrnet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sosr"
	"sosr/internal/setutil"
	"sosr/internal/store"
)

// postAdmin posts a JSON body to an admin endpoint and decodes the reply.
func postAdmin(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: undecodable admin reply: %v", url, err)
	}
	return resp.StatusCode, out
}

// getDatasets fetches and decodes the ops /datasets summary.
func getDatasets(t *testing.T, opsURL string) map[string]DatasetInfo {
	t.Helper()
	resp, err := http.Get(opsURL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dis []DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&dis); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]DatasetInfo, len(dis))
	for _, di := range dis {
		out[di.Name] = di
	}
	return out
}

// TestOpsAdminSurface drives the full remote-operations loop the CI
// crash-recovery job depends on: readiness flips, hosting, updating,
// snapshotting and dropping datasets over the ops mux, with /datasets
// content hashes that compare across server instances.
func TestOpsAdminSurface(t *testing.T) {
	alice, bob := setPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		s.UseStore(store.NewMem())
	})
	ops := httptest.NewServer(srv.OpsHandler())
	defer ops.Close()

	// Readiness follows SetReady; a fresh server is ready.
	status := func(path string) int {
		resp, err := http.Get(ops.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("fresh /readyz: got %d", got)
	}
	srv.SetReady(false)
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: got %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz must stay live while not ready: got %d", got)
	}
	srv.SetReady(true)
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("ready again /readyz: got %d", got)
	}

	// Host remotely, then reconcile over the data port.
	if code, body := postAdmin(t, ops.URL+"/admin/host",
		store.Record{Name: "ids", Kind: store.KindSet, Elems: alice}); code != http.StatusOK {
		t.Fatalf("/admin/host: %d %v", code, body)
	}
	c := Dial(addr)
	got, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 7, KnownDiff: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Recovered, setutil.Canonical(alice)) {
		t.Fatal("admin-hosted dataset reconciled to the wrong set")
	}

	// Update remotely: the version advances and the content hash moves.
	before := getDatasets(t, ops.URL)["ids"]
	if before.ContentHash == "" {
		t.Fatal("/datasets: empty content hash")
	}
	add, remove := []uint64{1_000_001, 1_000_002}, []uint64{alice[0]}
	code, body := postAdmin(t, ops.URL+"/admin/update", map[string]any{"name": "ids", "add": add, "remove": remove})
	if code != http.StatusOK || body["version"].(float64) != 1 {
		t.Fatalf("/admin/update: %d %v", code, body)
	}
	after := getDatasets(t, ops.URL)["ids"]
	if after.Version != 1 || after.ContentHash == before.ContentHash {
		t.Fatalf("update did not move the summary: %+v -> %+v", before, after)
	}

	// The hash is a pure function of contents: an independent server hosting
	// the same final set reports the identical digest.
	want := setutil.ApplyDiff(setutil.Canonical(alice), add, remove)
	ref := NewServer()
	if err := ref.HostSets("ids", want); err != nil {
		t.Fatal(err)
	}
	if refHash := ref.Datasets()[0].ContentHash; refHash != after.ContentHash {
		t.Fatalf("content hash differs across servers hosting equal data: %s vs %s", refHash, after.ContentHash)
	}

	// Snapshot, then drop; the dataset disappears from serving and summary.
	if code, body := postAdmin(t, ops.URL+"/admin/snapshot", adminNameReq{Name: "ids"}); code != http.StatusOK {
		t.Fatalf("/admin/snapshot: %d %v", code, body)
	}
	if code, body := postAdmin(t, ops.URL+"/admin/snapshot", adminNameReq{}); code != http.StatusOK {
		t.Fatalf("/admin/snapshot (all): %d %v", code, body)
	}
	if code, body := postAdmin(t, ops.URL+"/admin/drop", adminNameReq{Name: "ids"}); code != http.StatusOK {
		t.Fatalf("/admin/drop: %d %v", code, body)
	}
	if dis := getDatasets(t, ops.URL); len(dis) != 0 {
		t.Fatalf("dropped dataset still listed: %v", dis)
	}
	if _, _, err := c.Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 9, KnownDiff: 16}); err == nil ||
		!errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("post-drop session: want server-reported unknown dataset, got %v", err)
	}

	// The request body is the record, minus what is the server's to set: a
	// body naming a version, a shard binding or digests hosts at version 0,
	// unsharded, as if it had not.
	resp, err := http.Post(ops.URL+"/admin/host", "application/json", strings.NewReader(
		`{"name":"owned","kind":"set","elems":[1,2,3],"version":9,`+
			`"shard":{"Index":1,"Epoch":2,"Shards":[["a:1"],["b:1"]]},"digests":[{"Kind":1,"Data":"AAAA"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if di := getDatasets(t, ops.URL)["owned"]; resp.StatusCode != http.StatusOK || di.Items != 3 || di.Version != 0 || di.ShardCount != 0 {
		t.Fatalf("a body carrying version, shard and digests: status %d, hosted as %+v", resp.StatusCode, di)
	}
	if code, body := postAdmin(t, ops.URL+"/admin/update", map[string]any{"name": "owned", "add": []uint64{4}, "version": 40}); code != http.StatusOK || body["version"].(float64) != 1 {
		t.Fatalf("an update body carrying a version: %d %v", code, body)
	}

	// Error mapping: unknown names 404, bad kinds and bodies 400.
	if code, _ := postAdmin(t, ops.URL+"/admin/update", map[string]any{"name": "ids", "add": add}); code != http.StatusNotFound {
		t.Fatalf("update of dropped dataset: got %d, want 404", code)
	}
	if code, _ := postAdmin(t, ops.URL+"/admin/drop", adminNameReq{Name: "ids"}); code != http.StatusNotFound {
		t.Fatalf("double drop: got %d, want 404", code)
	}
	if code, _ := postAdmin(t, ops.URL+"/admin/host", store.Record{Name: "g", Kind: "hypergraph"}); code != http.StatusBadRequest {
		t.Fatalf("hosting an unknown kind over admin: got %d, want 400", code)
	}
	resp, err = http.Post(ops.URL+"/admin/host", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: got %d, want 400", resp.StatusCode)
	}
}

// TestOpsAdminHostsGraphsAndForests: every kind goes through /admin/host the
// same way — the request body is the store.Record the kind table decodes — so a
// dataset hosted over the admin surface hashes like one hosted through the
// typed API, reconciles over the data port, and a record the kind refuses (an
// element outside the universe, an edge outside the vertex range, a cyclic
// parent array) is a 400 carrying the kind's error. (It began with the two
// kinds whose contents are not elems or parents, hence the name.)
func TestOpsAdminHostsGraphsAndForests(t *testing.T) {
	setA, setB := setPair()
	bagA := append(seqSet(0, 200), 7, 7, 9)
	bagB := append(seqSet(0, 200), 7, 11, 11)
	bagWant := slices.Sorted(slices.Values(bagA))
	sosA, sosB := sosPair()
	base, h, err := sosr.PlantedSeparatedGraph(600, 2, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := sosr.PerturbGraph(base, 1, 12), sosr.PerturbGraph(base, 1, 13)
	fa := sosr.RandomForest(120, 0.15, 51)
	fb := sosr.PerturbForest(fa, 3, 52)
	ctx := context.Background()
	for _, row := range []struct {
		kind      Kind
		req, bad  store.Record // bad: a record the kind refuses, where it can refuse one
		badErr    string
		hostAPI   func(s *Server) error
		reconcile func(c *Client) (ok bool, err error)
	}{
		{
			kind:    KindSet,
			req:     store.Record{Elems: setA},
			bad:     store.Record{Elems: []uint64{1, 1 << 61}},
			badErr:  "universe bound",
			hostAPI: func(s *Server) error { return s.HostSets("data", setA) },
			reconcile: func(c *Client) (bool, error) {
				res, _, err := c.Sets(ctx, "data", setB, sosr.SetConfig{Seed: 3, KnownDiff: 16})
				return err == nil && reflect.DeepEqual(res.Recovered, setutil.Canonical(setA)), err
			},
		},
		{
			kind:    KindMultiset,
			req:     store.Record{Elems: bagA},
			bad:     store.Record{Elems: []uint64{1, 1 << 50}},
			badErr:  "out of range",
			hostAPI: func(s *Server) error { return s.HostMultiset("data", bagA) },
			reconcile: func(c *Client) (bool, error) {
				rec, _, err := c.Multiset(ctx, "data", bagB, 16, 4)
				return err == nil && slices.Equal(rec, bagWant), err
			},
		},
		{
			kind:    KindSetsOfSets,
			req:     store.Record{Parents: sosA},
			hostAPI: func(s *Server) error { return s.HostSetsOfSets("data", sosA) },
			reconcile: func(c *Client) (bool, error) {
				res, _, err := c.SetsOfSets(ctx, "data", sosB, sosr.Config{Seed: 5, KnownDiff: 24})
				return err == nil && setutil.EqualSetOfSets(res.Recovered, setutil.CanonicalSets(sosA)), err
			},
		},
		{
			kind:    KindGraph,
			req:     store.Record{N: ga.N, Edges: ga.Edges},
			bad:     store.Record{N: 3, Edges: [][2]int{{0, 1}, {1, 3}}},
			badErr:  "edge (1,3) outside 3 vertices",
			hostAPI: func(s *Server) error { return s.HostGraph("data", ga) },
			reconcile: func(c *Client) (bool, error) {
				res, _, err := c.Graph(ctx, "data", gb, sosr.GraphConfig{Seed: 14, Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: h})
				return err == nil && sosr.GraphsExactlyIsomorphic(res.Recovered, ga), err
			},
		},
		{
			kind:    KindForest,
			req:     store.Record{Parent: fa.Parent},
			bad:     store.Record{Parent: []int32{1, 2, 0}},
			badErr:  "cycle",
			hostAPI: func(s *Server) error { return s.HostForest("data", fa) },
			reconcile: func(c *Client) (bool, error) {
				res, _, err := c.Forest(ctx, "data", fb, sosr.ForestConfig{Seed: 53, MaxEdits: 3})
				return err == nil && sosr.ForestsIsomorphic(res.Recovered, fa), err
			},
		},
	} {
		srv, addr, _ := startServer(t, func(s *Server) { s.UseStore(store.NewMem()) })
		ops := httptest.NewServer(srv.OpsHandler())
		row.req.Name, row.req.Kind = "data", string(row.kind)
		if code, body := postAdmin(t, ops.URL+"/admin/host", row.req); code != http.StatusOK {
			t.Fatalf("%s: /admin/host: %d %v", row.kind, code, body)
		}
		ref := NewServer()
		if err := row.hostAPI(ref); err != nil {
			t.Fatal(err)
		}
		got, want := getDatasets(t, ops.URL)["data"], ref.Datasets()[0]
		if got.ContentHash == "" || got.ContentHash != want.ContentHash || got.Kind != want.Kind || got.Items != want.Items {
			t.Errorf("%s: admin-hosted summary %+v, API-hosted %+v", row.kind, got, want)
		}
		if ok, err := row.reconcile(Dial(addr)); !ok {
			t.Errorf("%s: reconcile against the admin-hosted dataset: recovered wrong data or failed: %v", row.kind, err)
		}
		if row.badErr != "" {
			row.bad.Name, row.bad.Kind = "bad", string(row.kind)
			code, body := postAdmin(t, ops.URL+"/admin/host", row.bad)
			if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, row.badErr) {
				t.Errorf("%s: malformed record: got %d %v, want 400 naming %q", row.kind, code, body, row.badErr)
			}
			if _, listed := getDatasets(t, ops.URL)["bad"]; listed {
				t.Errorf("%s: the refused record is hosted", row.kind)
			}
		}
		ops.Close()
	}
}
