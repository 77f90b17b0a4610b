package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sosr"
	"sosr/sosrnet"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOneRecordEveryWayIn: a dataset is written down one way — a store.Record
// in its JSON form — and every way of hosting one decodes that form and makes
// the same call into the kind table. So the same entry hosted from a -data
// file, from -config's datasets, over /admin/host and through the typed API
// must be the same dataset, for every kind: equal content hashes in /datasets.
func TestOneRecordEveryWayIn(t *testing.T) {
	for _, row := range []struct {
		kind, entry string
		typed       func(s *sosrnet.Server) error
	}{
		{"set", `{"name":"d","kind":"set","elems":[5,3,9,3,1]}`,
			func(s *sosrnet.Server) error { return s.HostSets("d", []uint64{5, 3, 9, 3, 1}) }},
		{"multiset", `{"name":"d","kind":"multiset","elems":[5,3,9,3,1]}`,
			func(s *sosrnet.Server) error { return s.HostMultiset("d", []uint64{5, 3, 9, 3, 1}) }},
		{"sos", `{"name":"d","kind":"sos","parents":[[2,1],[3],[9,8,7]]}`,
			func(s *sosrnet.Server) error { return s.HostSetsOfSets("d", [][]uint64{{2, 1}, {3}, {9, 8, 7}}) }},
		{"graph", `{"name":"d","kind":"graph","n":4,"edges":[[0,1],[1,2],[3,1]]}`,
			func(s *sosrnet.Server) error {
				return s.HostGraph("d", sosr.Graph{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {3, 1}}})
			}},
		{"forest", `{"name":"d","kind":"forest","parent":[-1,0,0,2]}`,
			func(s *sosrnet.Server) error { return s.HostForest("d", sosr.Forest{Parent: []int32{-1, 0, 0, 2}}) }},
	} {
		file := `{"datasets": [` + row.entry + `]}`
		hosted := map[string]*sosrnet.Server{}

		sets, err := loadDatasets(writeFile(t, "data.json", file))
		if err != nil {
			t.Fatalf("%s: -data file: %v", row.kind, err)
		}
		hosted["-data"] = sosrnet.NewServer()
		if err := hostAll(hosted["-data"], sets, nil, 0); err != nil {
			t.Fatalf("%s: -data file: %v", row.kind, err)
		}

		cfg, err := loadServerConfig(writeFile(t, "config.json", file))
		if err != nil {
			t.Fatalf("%s: -config: %v", row.kind, err)
		}
		hosted["-config"] = sosrnet.NewServer()
		if err := hostAll(hosted["-config"], cfg.Datasets, nil, 0); err != nil {
			t.Fatalf("%s: -config: %v", row.kind, err)
		}

		hosted["/admin/host"] = sosrnet.NewServer()
		ops := httptest.NewServer(hosted["/admin/host"].OpsHandler())
		resp, err := http.Post(ops.URL+"/admin/host", "application/json", strings.NewReader(row.entry))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ops.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /admin/host: status %d", row.kind, resp.StatusCode)
		}

		hosted["typed API"] = sosrnet.NewServer()
		if err := row.typed(hosted["typed API"]); err != nil {
			t.Fatalf("%s: typed API: %v", row.kind, err)
		}

		want := hosted["typed API"].Datasets()
		if len(want) != 1 || string(want[0].Kind) != row.kind || want[0].ContentHash == "" {
			t.Fatalf("%s: the typed API hosted %+v", row.kind, want)
		}
		for way, srv := range hosted {
			if got := srv.Datasets(); len(got) != 1 || got[0] != want[0] {
				t.Errorf("%s hosted through %s is %+v, through the typed API %+v", row.kind, way, got, want[0])
			}
		}
	}
}

// TestFilesCannotSetServerOwnedFields: a record's version, shard binding and
// digests are the server's. No file can set them — and where a file is held to
// its schema, -config's, trying to is the unknown field it would be for any
// other made-up name.
func TestFilesCannotSetServerOwnedFields(t *testing.T) {
	for _, field := range []string{`"version": 9`, `"shard": {"Index": 1}`, `"digests": [{"Kind": 1}]`} {
		entry := `{"name": "ids", "kind": "set", "elems": [1, 2, 3], ` + field + `}`
		name := field[1:strings.Index(field, `":`)]
		_, err := loadServerConfig(writeFile(t, "config.json", `{"datasets": [`+entry+`]}`))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown field %q", name)) {
			t.Errorf("-config with %s in a dataset: got %v, want an unknown-field error", field, err)
		}
		sets, err := loadDatasets(writeFile(t, "data.json", `{"datasets": [`+entry+`]}`))
		if err != nil || len(sets) != 1 {
			t.Fatalf("-data with %s in a dataset: %v", field, err)
		}
		if rec := sets[0]; rec.Version != 0 || rec.Shard != nil || rec.Digests != nil {
			t.Errorf("-data with %s in a dataset set a server-owned field: %+v", field, rec)
		}
	}
}
