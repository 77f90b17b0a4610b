package sosrnet

import (
	"context"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sosr"
	"sosr/internal/setutil"
	"sosr/internal/shardmap"
	"sosr/internal/store"
	"sosr/internal/transport"
	"sosr/internal/wire"
	"sosr/internal/worktest"
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

// TestShardRestartsOnNewAddress: a persisted slice is bound to its shard's
// position, not to the address it was served from. Shard 1 of two hosts its
// slice on a Disk store and serves it; the server closes, a fresh one recovers
// the store on another listener, and a client whose topology names the new
// address reconciles the recovered slice.
func TestShardRestartsOnNewAddress(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	alice, bob := setPair()
	const index = 1
	cfg := sosr.SetConfig{Seed: 11, KnownDiff: 16}
	syncShard := func(addr string, topo *shardmap.Topology) (*sosr.SetResult, error) {
		c := shardClient(addr, topo, index)
		defer c.Close()
		c.Timeout = 30 * time.Second
		got, _, err := c.Sets(ctx, "ids", setutil.Canonical(topo.OwnedElems(index, bob)), cfg)
		return got, err
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvA := NewServer()
	srvA.UseStore(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srvA.Serve(ln) }()
	before := mustTopo(t, 1, "shard0.example:7075", ln.Addr().String())
	if err := srvA.Host(&store.Record{Name: "ids", Kind: store.KindSet, Elems: alice}, before, index); err != nil {
		t.Fatal(err)
	}
	want, err := syncShard(ln.Addr().String(), before)
	if err != nil {
		t.Fatal(err)
	}
	srvA.Close()
	if err := <-serveErr; err != nil {
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
	_, addr, _ := startServer(t, func(s *Server) {
		s.UseStore(st2)
		if rs, err := s.Recover(); err != nil || rs.Datasets != 1 {
			t.Fatalf("Recover: %+v, %v", rs, err)
		}
	})
	if addr == ln.Addr().String() {
		t.Fatal("the restarted shard listens where the first one did")
	}
	got, err := syncShard(addr, mustTopo(t, 1, "shard0.example:7075", addr))
	if err != nil {
		t.Fatalf("restarted shard on a new address: %v", err)
	}
	if !reflect.DeepEqual(got.Recovered, want.Recovered) {
		t.Fatal("the restarted shard serves another slice than before")
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
	logged := slog.New(worktest.Handler(func(r slog.Record) {
		if r.Level >= slog.LevelWarn {
			warnings = append(warnings, r.Message)
		}
	}))
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
	docs, _ := sosPair()
	for _, err := range []error{srv.HostSets("ids", seqSet(100, 400)), srv.HostMultiset("bag", []uint64{1, 1, 2, 3}),
		srv.HostSetsOfSets("docs", docs)} {
		if err != nil {
			t.Fatal(err)
		}
	}
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
