package sosrnet

import (
	"bytes"
	"context"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sosr"
	"sosr/internal/setutil"
	"sosr/internal/store"
	"sosr/internal/transport"
	"sosr/internal/wire"
)

// aliceProbe opens a raw session and captures the first protocol frame the
// server sends for the given hello — the Alice payload. Comparing these
// bytes across a restart is the strongest restore check available: in the
// public-coin model the payload is a pure function of (contents, seed,
// params), so a restored server is correct iff its payloads are identical.
func aliceProbe(t *testing.T, addr string, h helloMsg) (label string, payload []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ep := wire.NewEndpoint(conn, transport.Bob)
	h.V = protoVersion
	if err := ep.SendFrame(lblHello, appendCtl(nil, helloFields, &h)); err != nil {
		t.Fatal(err)
	}
	if _, err := recvOrServerError(ep, lblAccept); err != nil {
		t.Fatalf("probe %v: %v", h, err)
	}
	label, payload, err = ep.RecvFrame()
	if err != nil {
		t.Fatalf("probe %v: reading payload: %v", h, err)
	}
	_ = ep.SendFrame(lblDone, appendCtl(nil, doneFields, &doneMsg{OK: true, Rounds: 1}))
	return label, payload
}

// restoreProbes is the cross-protocol matrix the restore tests replay: every
// cached one-shot Alice path (IBLT set, charpoly, multiset, and the naive /
// nested / cascade / multiround sets-of-sets encoders) — the probes of the
// conformance fixtures of the kinds that take updates.
func restoreProbes(t testing.TB) map[string]helloMsg {
	probes := map[string]helloMsg{}
	for _, fx := range conformanceFixtures(t) {
		if fx.update != nil {
			for pname, h := range fx.probes {
				probes[pname] = h
			}
		}
	}
	return probes
}

// seedDatasets hosts the conformance fixtures of the three updatable kinds
// ("ids", "bag", "docs"); the restore tests apply their own update schedules.
func seedDatasets(t *testing.T, srv *Server) {
	t.Helper()
	for _, fx := range conformanceFixtures(t) {
		if fx.update != nil {
			if err := fx.host(srv); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRestoreEquivalence is the tentpole's correctness core: a server
// restored from snapshot + WAL serves byte-identical Alice payloads across
// every cached protocol, at the same dataset versions, with its live
// digests restored and then patched by the replayed suffix.
func TestRestoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	srvA := NewServer()
	srvA.UseStore(st)
	seedDatasets(t, srvA)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srvA.Serve(ln) }()
	addrA := ln.Addr().String()

	// Mutate every dataset so the WAL carries entries beyond the hosting
	// snapshots.
	if err := srvA.UpdateSets("ids", []uint64{5000, 5001}, []uint64{100}); err != nil {
		t.Fatal(err)
	}
	if err := srvA.UpdateMultisets("bag", []uint64{4, 4}, []uint64{9}); err != nil {
		t.Fatal(err)
	}
	if err := srvA.UpdateSetsOfSets("docs", [][]uint64{{9000, 9001}}, [][]uint64{{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}

	// Warm a live incremental digest: a key is promoted on its second cache
	// miss, and same-version repeats are absorbed by the payload cache, so
	// the second probe must come after a version bump. Snapshot so the digest
	// persists, then update once more so recovery must patch the restored
	// digest through WAL replay — the stale-digest trap.
	aliceProbe(t, addrA, restoreProbes(t)["cascade-live"])
	if err := srvA.UpdateSetsOfSets("docs", [][]uint64{{9050, 9051}}, nil); err != nil {
		t.Fatal(err)
	}
	aliceProbe(t, addrA, restoreProbes(t)["cascade-live"])
	if err := srvA.SnapshotDataset("docs"); err != nil {
		t.Fatal(err)
	}
	if err := srvA.UpdateSetsOfSets("docs", [][]uint64{{9100, 9101, 9102}}, nil); err != nil {
		t.Fatal(err)
	}

	wantVersions := map[string]uint64{}
	wantPayload := map[string][]byte{}
	wantLabel := map[string]string{}
	for pname, h := range restoreProbes(t) {
		wantLabel[pname], wantPayload[pname] = aliceProbe(t, addrA, h)
	}
	for _, name := range []string{"ids", "bag", "docs"} {
		v, err := srvA.DatasetVersion(name)
		if err != nil {
			t.Fatal(err)
		}
		wantVersions[name] = v
	}
	wantInfos := map[string]DatasetInfo{}
	for _, di := range srvA.Datasets() {
		wantInfos[di.Name] = di
	}
	srvA.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh store handle, a fresh server, recovery before serving.
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
	if rs.Datasets != 3 {
		t.Fatalf("recovered %d datasets, want 3 (%+v)", rs.Datasets, rs)
	}
	if rs.Digests == 0 {
		t.Fatalf("no live digests restored (%+v)", rs)
	}
	if rs.Replayed == 0 {
		t.Fatalf("no WAL entries replayed (%+v)", rs)
	}

	for name, want := range wantVersions {
		if got, err := srvB.DatasetVersion(name); err != nil || got != want {
			t.Fatalf("%s: version %d (err %v), want %d — enccache keys would lie", name, got, err, want)
		}
	}
	for _, di := range srvB.Datasets() {
		if want := wantInfos[di.Name]; !reflect.DeepEqual(di, want) {
			t.Fatalf("%s: dataset summary diverged after restore:\n got %+v\nwant %+v", di.Name, di, want)
		}
	}
	for pname, h := range restoreProbes(t) {
		label, payload := aliceProbe(t, addrB, h)
		if label != wantLabel[pname] {
			t.Fatalf("%s: restored server sent %q, want %q", pname, label, wantLabel[pname])
		}
		if !bytes.Equal(payload, wantPayload[pname]) {
			t.Fatalf("%s: restored Alice payload differs (%d vs %d bytes)", pname, len(payload), len(wantPayload[pname]))
		}
	}

	// And a full reconcile against the restored server lands on the restored
	// contents.
	bob := append(seqSet(101, 390), 7777)
	got, _, err := Dial(addrB).Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 21, KnownDiff: 32})
	if err != nil {
		t.Fatal(err)
	}
	want := setutil.ApplyDiff(seqSet(100, 400), []uint64{5000, 5001}, []uint64{100})
	if !reflect.DeepEqual(got.Recovered, want) {
		t.Fatal("reconcile against restored server recovered the wrong set")
	}
}

// findWAL returns the single dataset WAL under a store root whose dataset
// directory name starts with prefix.
func findWAL(t *testing.T, root, prefix string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(root, prefix+"-*", "wal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("locating %s WAL: %v (%v)", prefix, matches, err)
	}
	return matches[0]
}

// TestRecoverTruncatesTornWAL pins the end-to-end damaged-tail story: a WAL
// whose final record is torn recovers to the last good version with a logged
// warning, never a panic, and the re-snapshot leaves a clean store behind.
func TestRecoverTruncatesTornWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvA := NewServer()
	srvA.UseStore(st)
	if err := srvA.HostSets("ids", seqSet(0, 50)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if err := srvA.UpdateSets("ids", []uint64{1000 + i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop three bytes off the file.
	wal := findWAL(t, dir, "ids")
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, int64(len(raw)-3)); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	logged := slog.New(hookHandler{fn: func(r slog.Record) {
		if r.Level >= slog.LevelWarn {
			warnings = append(warnings, r.Message)
		}
	}})
	st2, err := store.Open(dir, store.Options{Logger: logged})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srvB := NewServer()
	srvB.Logger = logged
	srvB.UseStore(st2)
	rs, err := srvB.Recover()
	if err != nil {
		t.Fatalf("Recover after torn tail: %v", err)
	}
	if rs.Truncated != 1 || rs.Datasets != 1 {
		t.Fatalf("recovery stats %+v, want 1 dataset with a truncated WAL", rs)
	}
	if v, _ := srvB.DatasetVersion("ids"); v != 3 {
		t.Fatalf("recovered version %d, want 3 (last intact record)", v)
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "truncating damaged WAL tail") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no truncation warning logged; got %q", warnings)
	}

	// The lost tail re-applies cleanly: recovery re-snapshotted, so the next
	// update continues from the surviving version.
	if err := srvB.UpdateSets("ids", []uint64{1003}, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := srvB.DatasetVersion("ids"); v != 4 {
		t.Fatalf("post-recovery update landed at version %d, want 4", v)
	}
	// A third incarnation sees only clean state: no truncation, same contents.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	srvC := NewServer()
	srvC.UseStore(st3)
	rs3, err := srvC.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs3.Truncated != 0 {
		t.Fatalf("clean reopen still reports truncation: %+v", rs3)
	}
	wantHash := srvB.Datasets()[0].ContentHash
	if got := srvC.Datasets()[0].ContentHash; got != wantHash {
		t.Fatalf("content diverged across clean reopen: %s vs %s", got, wantHash)
	}
}

// TestSnapshotAllCompactsWALs pins the SIGTERM path: SnapshotAll folds every
// dataset's WAL into a snapshot, so the next boot replays nothing.
func TestSnapshotAllCompactsWALs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.UseStore(st)
	seedDatasets(t, srv)
	if err := srv.UpdateSets("ids", []uint64{7001}, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.UpdateSetsOfSets("docs", [][]uint64{{8000}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.SnapshotAll(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := NewServer()
	srv2.UseStore(st2)
	rs, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replayed != 0 || rs.Datasets != 3 {
		t.Fatalf("post-SnapshotAll boot replayed %d entries over %d datasets, want 0 over 3", rs.Replayed, rs.Datasets)
	}
	if v, _ := srv2.DatasetVersion("ids"); v != 1 {
		t.Fatalf("ids recovered at version %d, want 1", v)
	}
	for i, want := range []string{"bag", "docs", "ids"} {
		if got := srv2.Datasets()[i].Name; got != want {
			t.Fatalf("dataset %d: %s, want %s", i, got, want)
		}
	}
}

// TestRecoverDiscardsFormat1Digest is the upgrade path: a snapshot written
// before the compact child encodings carries format-1 digest blobs. Recovery
// must refuse them by format (with a warning, not an error), keep the
// dataset, and rebuild the digest lazily so the next session's payload is the
// one a never-restarted server would send.
func TestRecoverDiscardsFormat1Digest(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvA := NewServer()
	srvA.UseStore(st)
	seedDatasets(t, srvA)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srvA.Serve(ln) }()
	// Admit the live digest (second miss of its key, across a version bump)
	// and snapshot it.
	live := restoreProbes(t)["cascade-live"]
	aliceProbe(t, ln.Addr().String(), live)
	if err := srvA.UpdateSetsOfSets("docs", [][]uint64{{9050, 9051}}, nil); err != nil {
		t.Fatal(err)
	}
	_, want := aliceProbe(t, ln.Addr().String(), live)
	if err := srvA.SnapshotDataset("docs"); err != nil {
		t.Fatal(err)
	}
	srvA.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// Rewrite the snapshot as its pre-upgrade self: same framing, format 1.
	recs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	downgraded := 0
	for _, r := range recs {
		for i := range r.Record.Digests {
			r.Record.Digests[i].Data[0] = 1
			downgraded++
		}
		if err := st.SaveSnapshot(r.Record); err != nil {
			t.Fatal(err)
		}
	}
	if downgraded == 0 {
		t.Fatal("no digest was persisted; the test would prove nothing")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var discarded []string
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var rs RecoveryStats
	_, addrB, _ := startServer(t, func(s *Server) {
		s.Logger = slog.New(hookHandler{fn: func(r slog.Record) {
			if r.Message == "recovery: discarding persisted digest" {
				r.Attrs(func(a slog.Attr) bool {
					if a.Key == "err" {
						discarded = append(discarded, a.Value.String())
					}
					return true
				})
			}
		}})
		s.UseStore(st2)
		var err error
		if rs, err = s.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
	})
	if rs.Datasets != 3 || rs.Digests != 0 {
		t.Fatalf("recovery stats %+v, want 3 datasets and no restored digest", rs)
	}
	if len(discarded) != downgraded {
		t.Fatalf("%d discard warnings for %d format-1 digests", len(discarded), downgraded)
	}
	for _, msg := range discarded {
		if !strings.Contains(msg, "format") {
			t.Fatalf("digest discarded for %q, want a format refusal", msg)
		}
	}
	if _, got := aliceProbe(t, addrB, live); !bytes.Equal(got, want) {
		t.Fatalf("payload after discarding the digest differs (%d vs %d bytes)", len(got), len(want))
	}
}
