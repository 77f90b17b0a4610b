package sosrnet

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"testing"

	"sosr"
	"sosr/internal/forest"
	"sosr/internal/store"
)

// kindFixture is what the conformance test needs to know about one dataset
// kind: data to host, a replica to reconcile against it (with the in-process
// run that predicts the session), updates for the kinds that take them, and
// the hellos whose Alice payload pins the hosted contents byte for byte. The
// restore tests host the updatable fixtures and replay the same probes
// (seedDatasets, restoreProbes), so there is one list.
type kindFixture struct {
	dataset string
	host    func(s *Server) error
	// reconcile runs bob's replica against the hosted dataset over c and in
	// process, checks the wire result against the in-process one, and returns
	// the wire accounting with the in-process Stats it must equal.
	reconcile func(t *testing.T, c *Client) (*NetStats, sosr.Stats)
	// update applies the step-th of two live mutations; nil for the kinds
	// that take none.
	update func(s *Server, step int) error
	probes map[string]helloMsg
}

// conformanceFixtures has one entry per registered kind. TestKindConformance
// fails on a kind that has none, so registering a kind means adding one.
func conformanceFixtures(t testing.TB) map[Kind]kindFixture {
	ctx := context.Background()
	ids := seqSet(100, 400)
	bag := []uint64{1, 1, 2, 3, 3, 3, 9}
	docs := make([][]uint64, 0, 40)
	for i := uint64(0); i < 40; i++ {
		docs = append(docs, []uint64{i * 10, i*10 + 1, i*10 + 2})
	}
	base, topH, err := sosr.PlantedSeparatedGraph(600, 2, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := sosr.PerturbGraph(base, 1, 12), sosr.PerturbGraph(base, 1, 13)
	fa := sosr.RandomForest(120, 0.15, 51)
	fb := sosr.PerturbForest(fa, 3, 52)
	fbInfo := forest.Measure(&forest.Forest{Parent: fb.Parent})
	return map[Kind]kindFixture{
		KindSet: {
			dataset: "ids",
			host:    func(s *Server) error { return s.HostSets("ids", ids) },
			reconcile: func(t *testing.T, c *Client) (*NetStats, sosr.Stats) {
				bob, cfg := append(seqSet(101, 390), 7777), sosr.SetConfig{Seed: 21, KnownDiff: 32}
				want, err := sosr.ReconcileSets(ids, bob, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, ns, err := c.Sets(ctx, "ids", bob, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Recovered, want.Recovered) || !reflect.DeepEqual(got.OnlyA, want.OnlyA) || !reflect.DeepEqual(got.OnlyB, want.OnlyB) {
					t.Fatal("wire result diverges from the in-process run")
				}
				return ns, want.Stats
			},
			update: func(s *Server, step int) error {
				return s.UpdateSets("ids", []uint64{6000 + uint64(step)}, []uint64{200 + uint64(step)})
			},
			probes: map[string]helloMsg{
				"set-iblt": {Dataset: "ids", Kind: KindSet, Seed: 7, D: 16},
				"charpoly": {Dataset: "ids", Kind: KindSet, Seed: 7, D: 12, CharPoly: true},
			},
		},
		KindMultiset: {
			dataset: "bag",
			host:    func(s *Server) error { return s.HostMultiset("bag", bag) },
			reconcile: func(t *testing.T, c *Client) (*NetStats, sosr.Stats) {
				bob := []uint64{1, 2, 2, 3, 3, 9, 9}
				want, stats, err := sosr.ReconcileMultisets(bag, bob, 16, 3)
				if err != nil {
					t.Fatal(err)
				}
				got, ns, err := c.Multiset(ctx, "bag", bob, 16, 3)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("wire recovered %v, in-process %v", got, want)
				}
				return ns, stats
			},
			update: func(s *Server, step int) error {
				return s.UpdateMultisets("bag", []uint64{20, 20 + uint64(step)}, []uint64{3})
			},
			probes: map[string]helloMsg{
				"multiset": {Dataset: "bag", Kind: KindMultiset, Seed: 3, D: 8},
			},
		},
		KindSetsOfSets: {
			dataset: "docs",
			host:    func(s *Server) error { return s.HostSetsOfSets("docs", docs) },
			reconcile: func(t *testing.T, c *Client) (*NetStats, sosr.Stats) {
				bob := append([][]uint64{{5, 6}, {10, 11, 13}}, docs[2:]...)
				cfg := sosr.Config{Seed: 9, Protocol: sosr.ProtocolCascade, KnownDiff: 12}
				want, err := sosr.ReconcileSetsOfSets(docs, bob, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, ns, err := c.SetsOfSets(ctx, "docs", bob, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Recovered, want.Recovered) || !reflect.DeepEqual(got.Added, want.Added) ||
					!reflect.DeepEqual(got.Removed, want.Removed) || got.Attempts != want.Attempts {
					t.Fatal("wire result diverges from the in-process run")
				}
				return ns, want.Stats
			},
			update: func(s *Server, step int) error {
				k := uint64(step)
				return s.UpdateSetsOfSets("docs", [][]uint64{{8000 + k, 8100 + k}}, [][]uint64{docs[30+step]})
			},
			probes: map[string]helloMsg{
				"naive":      {Dataset: "docs", Kind: KindSetsOfSets, Seed: 9, Protocol: "naive", D: 4},
				"nested":     {Dataset: "docs", Kind: KindSetsOfSets, Seed: 9, Protocol: "nested", D: 4},
				"cascade":    {Dataset: "docs", Kind: KindSetsOfSets, Seed: 9, Protocol: "cascade", D: 4},
				"multiround": {Dataset: "docs", Kind: KindSetsOfSets, Seed: 9, Protocol: "multiround", D: 4},
				// Explicit shape: the live-digest key is then version-independent, so
				// this probe exercises the restored-and-WAL-patched incremental digest
				// rather than a fresh encode.
				"cascade-live": {Dataset: "docs", Kind: KindSetsOfSets, Seed: 9, Protocol: "cascade", D: 4, S: 64, H: 8},
			},
		},
		KindGraph: {
			dataset: "net",
			host:    func(s *Server) error { return s.HostGraph("net", ga) },
			reconcile: func(t *testing.T, c *Client) (*NetStats, sosr.Stats) {
				cfg := sosr.GraphConfig{Seed: 14, Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: topH}
				want, err := sosr.ReconcileGraphs(ga, gb, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, ns, err := c.Graph(ctx, "net", gb, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !sosr.GraphsExactlyIsomorphic(got.Recovered, ga) {
					t.Fatal("recovered graph not isomorphic to the server's")
				}
				return ns, want.Stats
			},
			probes: map[string]helloMsg{
				"degree": {Dataset: "net", Kind: KindGraph, Seed: 14, Scheme: "degree", D: 2, TopH: topH, N: ga.N},
			},
		},
		KindForest: {
			dataset: "tree",
			host:    func(s *Server) error { return s.HostForest("tree", fa) },
			reconcile: func(t *testing.T, c *Client) (*NetStats, sosr.Stats) {
				cfg := sosr.ForestConfig{Seed: 53, MaxEdits: 3}
				want, err := sosr.ReconcileForests(fa, fb, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, ns, err := c.Forest(ctx, "tree", fb, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !sosr.ForestsIsomorphic(got.Recovered, fa) {
					t.Fatal("recovered forest not isomorphic to the server's")
				}
				return ns, want.Stats
			},
			probes: map[string]helloMsg{
				"forest": {Dataset: "tree", Kind: KindForest, Seed: 53, D: 3, N: fbInfo.N, Depth: fbInfo.Depth, MaxChild: fbInfo.MaxChild},
			},
		},
	}
}

// TestKindConformance runs every registered kind through the life of a hosted
// dataset: host it on a store-backed server; reconcile over TCP and get the
// in-process result with the in-process Stats; update it (the kinds that take
// updates: once before a snapshot, once after, so recovery has a WAL suffix to
// replay); recover a fresh server from the store; and find the same dataset
// there — version, item count and content hash — serving byte-identical Alice
// payloads to the same hellos. The graph and forest arms of the record codec
// are served from nowhere else.
func TestKindConformance(t *testing.T) {
	fixtures := conformanceFixtures(t)
	for _, k := range kinds {
		fx, ok := fixtures[k.kind]
		if !ok {
			t.Fatalf("kind %q is registered but has no conformance fixture", k.kind)
		}
		t.Run(string(k.kind), func(t *testing.T) {
			if (fx.update != nil) != (k.stage != nil) {
				t.Fatalf("the fixture has updates: %v, the table entry takes them: %v", fx.update != nil, k.stage != nil)
			}
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			srvA := NewServer()
			srvA.UseStore(st)
			if err := fx.host(srvA); err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srvA.Serve(ln) }()
			addrA := ln.Addr().String()

			c := Dial(addrA)
			ns, want := fx.reconcile(t, c)
			c.Close()
			checkNetStats(t, ns, want)

			if fx.update != nil {
				if err := fx.update(srvA, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := srvA.SnapshotDataset(fx.dataset); err != nil {
				t.Fatal(err)
			}
			wantVersion := uint64(0)
			if fx.update != nil {
				if err := fx.update(srvA, 1); err != nil {
					t.Fatal(err)
				}
				wantVersion = 2
			}
			wantInfos := srvA.Datasets()
			if len(wantInfos) != 1 || wantInfos[0].Version != wantVersion || wantInfos[0].Kind != k.kind || wantInfos[0].Items == 0 {
				t.Fatalf("hosted summary %+v, want one %s dataset at version %d", wantInfos, k.kind, wantVersion)
			}
			type payload struct {
				label string
				body  []byte
			}
			wantPayload := map[string]payload{}
			for pname, h := range fx.probes {
				label, body := aliceProbe(t, addrA, h)
				wantPayload[pname] = payload{label, body}
			}
			srvA.Close()
			if err := <-served; err != nil {
				t.Fatalf("Serve: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			var rs RecoveryStats
			srvB, addrB, _ := startServer(t, func(s *Server) {
				s.UseStore(st2)
				var err error
				if rs, err = s.Recover(); err != nil {
					t.Fatalf("Recover: %v", err)
				}
			})
			if rs.Datasets != 1 || (fx.update != nil) != (rs.Replayed == 1) {
				t.Fatalf("recovery stats %+v", rs)
			}
			if got := srvB.Datasets(); !reflect.DeepEqual(got, wantInfos) {
				t.Fatalf("dataset summary diverged after restore:\n got %+v\nwant %+v", got, wantInfos)
			}
			for pname, h := range fx.probes {
				label, body := aliceProbe(t, addrB, h)
				if want := wantPayload[pname]; label != want.label || !bytes.Equal(body, want.body) {
					t.Fatalf("%s: restored server sent %q (%d bytes), want %q (%d bytes)", pname, label, len(body), want.label, len(want.body))
				}
			}
		})
	}
}
