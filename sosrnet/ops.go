package sosrnet

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"sosr/internal/obs"
	"sosr/internal/store"
)

// DatasetInfo is one hosted dataset's read-only operational summary, as
// served by the ops endpoint's /datasets.
type DatasetInfo struct {
	Name    string `json:"name"`
	Kind    Kind   `json:"kind"`
	Version uint64 `json:"version"`
	// Items is the hosted size in the kind's natural unit: elements for
	// sets/multisets, child sets for sets-of-sets, edges for graphs, nodes
	// for forests.
	Items      int    `json:"items"`
	ShardIndex int    `json:"shard_index,omitempty"`
	ShardCount int    `json:"shard_count,omitempty"`
	ShardEpoch uint64 `json:"shard_epoch,omitempty"`
	// ContentHash is an order-invariant hex digest of the hosted contents
	// under a fixed seed — two servers host byte-identical data iff the
	// hashes match, which is what crash-recovery checks compare.
	ContentHash string `json:"content_hash"`
}

// contentHashSeed fixes the /datasets content-hash seed so digests compare
// across processes and restarts.
const contentHashSeed = 0x5e7c0de

// Datasets returns a snapshot of every hosted dataset, sorted by name.
func (s *Server) Datasets() []DatasetInfo {
	s.mu.Lock()
	byName := make(map[string]*dataset, len(s.datasets))
	for name, ds := range s.datasets {
		byName[name] = ds
	}
	s.mu.Unlock()
	out := make([]DatasetInfo, 0, len(byName))
	for name, ds := range byName {
		di := DatasetInfo{Name: name, Kind: ds.k.kind}
		if ds.shard != nil {
			di.ShardIndex = ds.shard.index
			di.ShardCount = ds.shard.topo.NumShards()
			di.ShardEpoch = ds.shard.topo.Epoch()
		}
		// The hash digests the contents, not the version or shard binding.
		ds.mu.Lock()
		di.Version = ds.version
		di.Items = ds.k.items(&ds.contents)
		di.ContentHash = fmt.Sprintf("%016x", ds.k.hash(&ds.contents))
		ds.mu.Unlock()
		out = append(out, di)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// OpsHandler returns the server's operational HTTP surface, meant for a
// private listener (sosrd's -ops-addr), never the reconciliation port:
//
//	/metrics              Prometheus text exposition of Registry()
//	/healthz              liveness ("ok")
//	/readyz               readiness: 200 once recovery finished, 503 while
//	                      recovering or draining for shutdown
//	/datasets             read-only JSON dataset summary with content hashes
//	/admin/host           POST a store.Record {name,kind,elems|parents|n,edges|parent}: host a dataset
//	/admin/update         POST {name} + a store.Update {add,remove|add_sets,remove_sets}
//	/admin/drop           POST {name}: unhost + remove persisted state
//	/admin/snapshot       POST {name} ("" = all): snapshot, compacting the WAL
//	/debug/traces         recent + flagged (slow/errored) trace summaries;
//	                      ?id=<hex trace id> returns one trace's span tree
//	/debug/pprof/         the standard runtime profiles
//
// When AdminToken is set, every /admin/* and /debug/* route requires
// `Authorization: Bearer <token>`; /metrics, /healthz, /readyz, and /datasets
// stay open so scrapers and probes need no secret. The admin endpoints mutate
// hosted data and the debug endpoints expose internals — another reason this
// listener must stay private even with a token set.
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.Registry().Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("not ready\n"))
			return
		}
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/datasets", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Datasets())
	})
	mux.HandleFunc("POST /admin/host", admin(s, http.StatusBadRequest, s.adminHost))
	mux.HandleFunc("POST /admin/update", admin(s, http.StatusBadRequest, s.adminUpdate))
	mux.HandleFunc("POST /admin/drop", admin(s, http.StatusInternalServerError, s.adminDrop))
	mux.HandleFunc("POST /admin/snapshot", admin(s, http.StatusInternalServerError, s.adminSnapshot))
	mux.HandleFunc("/debug/traces", s.authorized(s.debugTraces))
	// The default-mux pprof registrations are skipped by using a private mux;
	// wire the handlers in explicitly.
	mux.HandleFunc("/debug/pprof/", s.authorized(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", s.authorized(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", s.authorized(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", s.authorized(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", s.authorized(pprof.Trace))
	return mux
}

// authorized gates a privileged ops handler behind AdminToken. With no token
// configured the handler is served as-is (private-listener deployments); with
// one, requests must present `Authorization: Bearer <token>`, compared in
// constant time so the gate leaks nothing about the token through timing.
func (s *Server) authorized(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token := s.AdminToken
		if token == "" {
			h(w, r)
			return
		}
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="sosr-ops"`)
			adminJSON(w, http.StatusUnauthorized, map[string]string{"error": "missing or invalid bearer token"})
			return
		}
		h(w, r)
	}
}

// debugTraces serves the trace rings: without ?id, the recent and flagged
// (slow/errored) summaries newest-first; with ?id=<hex trace id>, that
// trace's full span tree. 404s when tracing is not configured or the trace
// has been evicted.
func (s *Server) debugTraces(w http.ResponseWriter, r *http.Request) {
	if s.Trace == nil {
		adminJSON(w, http.StatusNotFound, map[string]string{"error": "tracing is not enabled on this server"})
		return
	}
	if raw := r.URL.Query().Get("id"); raw != "" {
		id, err := obs.ParseTraceID(raw)
		if err != nil {
			adminJSON(w, http.StatusBadRequest, map[string]string{"error": "bad trace id: " + err.Error()})
			return
		}
		d := s.Trace.Get(id)
		if d == nil {
			adminJSON(w, http.StatusNotFound, map[string]string{"error": "trace not found (evicted or never sampled)"})
			return
		}
		adminJSON(w, http.StatusOK, d)
		return
	}
	adminJSON(w, http.StatusOK, map[string]any{
		"recent":  s.Trace.Recent(),
		"flagged": s.Trace.Flagged(),
	})
}

// adminNameReq is the POST /admin/drop and /admin/snapshot body.
type adminNameReq struct {
	Name string `json:"name"`
}

// adminOK answers a successful admin call with the dataset's post-call
// version (0 for whole-server snapshots and drops).
type adminOK struct {
	Name    string `json:"name,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

func adminJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// admin wraps one admin call as an authorized handler: it decodes the JSON
// body, runs do, and answers with do's error — unknown dataset is 404,
// everything else (validation, duplicate host, store trouble) fallback — or
// with the name do returns and that dataset's post-call version (none for
// whole-server snapshots and drops).
func admin[Req any](s *Server, fallback int, do func(req *Req) (name string, err error)) http.HandlerFunc {
	return s.authorized(func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			adminJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
			return
		}
		name, err := do(&req)
		if err != nil {
			code := fallback
			if errors.Is(err, ErrUnknownDataset) {
				code = http.StatusNotFound
			}
			adminJSON(w, code, map[string]string{"error": err.Error()})
			return
		}
		v, _ := s.DatasetVersion(name)
		adminJSON(w, http.StatusOK, adminOK{Name: name, Version: v})
	})
}

// adminHost hosts the request body, which is the record: a store.Record in
// its JSON form, whose server-owned fields no body can set.
func (s *Server) adminHost(rec *store.Record) (string, error) {
	return rec.Name, s.Host(rec, nil, 0)
}

// adminUpdate applies the request body, which is the mutation — a store.Update
// in its JSON form — beside the name of the dataset it addresses; the hosted
// dataset's kind picks which field pair applies.
func (s *Server) adminUpdate(req *struct {
	adminNameReq
	store.Update
}) (string, error) {
	ds, err := s.byName(req.Name)
	if err != nil {
		return "", err
	}
	// Admin mutations get their own root trace: a "commit" child wraps the
	// staged commit and the WAL append lands as its "store/append" child, so
	// a slow durable write shows up in /debug/traces like any slow session.
	sp := s.Trace.StartRoot("admin/update")
	sp.SetStr("dataset", req.Name)
	sp.SetStr("kind", string(ds.k.kind))
	csp := sp.Child("commit")
	err = s.apply(req.Name, ds, &req.Update, false, csp)
	csp.Fail(err)
	csp.Finish()
	sp.Fail(err)
	sp.Finish()
	return req.Name, err
}

func (s *Server) adminDrop(req *adminNameReq) (string, error) {
	return req.Name, s.DropDataset(req.Name)
}

func (s *Server) adminSnapshot(req *adminNameReq) (string, error) {
	if req.Name == "" {
		return "", s.SnapshotAll()
	}
	return req.Name, s.SnapshotDataset(req.Name)
}
