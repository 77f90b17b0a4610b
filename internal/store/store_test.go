package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc64"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testRecord(name string) *Record {
	return &Record{
		Name:    name,
		Kind:    KindSetsOfSets,
		Version: 3,
		Parents: [][]uint64{{1, 2, 3}, {9}, {4, 7}},
		Shard:   &ShardBinding{Index: 1, Count: 2, Epoch: 7},
	}
}

// codecRecords are one record of every kind, plus an empty one.
func codecRecords() []*Record {
	return []*Record{
		testRecord("docs"),
		{Name: "ids", Kind: KindSet, Version: 1, Elems: []uint64{1, 5, 9}},
		{Name: "bag", Kind: KindMultiset, Elems: []uint64{1 << 12, 2 << 12}},
		{Name: "g", Kind: KindGraph, N: 5, Edges: [][2]int{{0, 1}, {2, 4}}},
		{Name: "f", Kind: KindForest, Parent: []int32{-1, 0, 0, 2}},
		{Name: "empty", Kind: KindSet},
	}
}

// codecUpdates are WAL entries of both content shapes, plus an empty one.
func codecUpdates() []*Update {
	return []*Update{
		{Version: 4, Add: []uint64{1, 2}, Remove: []uint64{3}},
		{Version: 9, AddSets: [][]uint64{{1, 2}, {}}, RemoveSets: [][]uint64{{7}}},
		{Version: 1},
	}
}

// parentDocsBody is testRecord("docs") unsharded, as a writer that still
// persisted live digests wrote it, carrying one
// ({Kind 2, Seed 42, S 64, H 8, U 1<<60, D 6, DHat 24, Data 01020304}).
const parentDocsBody = "0104646f637303736f73030000000000000003030100000000000000020000000000000003000000000000000109000000000000000204000000000000000700000000000000" +
	"00" + "01022a000000000000004008000000000000001006180401020304"

// parentShardedBody is a sharded record as a writer that bound shards to
// replica addresses wrote it: testRecord("docs") at shard 1 of
// [["a:1", "a2:1"], ["b:1"]], epoch 7.
const parentShardedBody = "0104646f637303736f73030000000000000003030100000000000000020000000000000003000000000000000109000000000000000204000000000000000700000000000000" +
	"01010700000000000000020203613a310461323a310103623a31" + "00"

func TestRecordCodecRoundTrip(t *testing.T) {
	for _, rec := range codecRecords() {
		body, err := marshalRecord(rec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", rec.Name, err)
		}
		got, err := unmarshalRecord(body)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", rec.Name, err)
		}
		if !reflect.DeepEqual(normalize(rec), normalize(got)) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", rec.Name, got, rec)
		}
		// Every truncation must fail cleanly, never panic.
		for i := 0; i < len(body); i++ {
			if _, err := unmarshalRecord(body[:i]); err == nil {
				t.Fatalf("%s: truncated to %d bytes still unmarshals", rec.Name, i)
			}
		}
	}
}

// normalize maps nil and empty slices together (codec does not distinguish).
func normalize(r *Record) *Record { return cloneRecord(r) }

// TestParentSnapshotWithDigests: a snapshot body whose digest list an older
// writer filled decodes to the same record without it, every truncation of it
// fails, and re-encoding it changes nothing but the list, now empty.
func TestParentSnapshotWithDigests(t *testing.T) {
	body, err := hex.DecodeString(parentDocsBody)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalRecord(body)
	if err != nil {
		t.Fatalf("parent body: %v", err)
	}
	want := testRecord("docs")
	want.Shard = nil
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Fatalf("parent body decodes to\n %+v\nwant %+v", got, want)
	}
	for i := 0; i < len(body); i++ {
		if _, err := unmarshalRecord(body[:i]); err == nil {
			t.Fatalf("parent body truncated to %d bytes still unmarshals", i)
		}
	}
	again, err := marshalRecord(got)
	if err != nil {
		t.Fatal(err)
	}
	list := len(again) - 1
	if again[list] != 0 || !bytes.Equal(again[:list], body[:list]) || body[list] != 1 {
		t.Fatalf("re-encoding moved more than the digest list:\n%x\n%x", again, body)
	}
}

// TestParentShardBindingRefused: a snapshot bound to its shard by replica
// addresses holds a slice that address-keyed ownership cut, so it is refused as
// corrupt with the remedy in the message, and Load skips it with a warning
// while the store's other datasets load.
func TestParentShardBindingRefused(t *testing.T) {
	body, err := hex.DecodeString(parentShardedBody)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unmarshalRecord(body); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "re-host the dataset from its logical data") {
		t.Fatalf("address-bound snapshot: got %v, want ErrCorrupt naming the remedy", err)
	}

	root := t.TempDir()
	st, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(&Record{Name: "ok", Kind: KindSet, Elems: []uint64{2}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	dir := filepath.Join(root, dsDirName("docs"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	file := append(append([]byte{}, snapMagic[:]...), body...)
	file = binary.LittleEndian.AppendUint64(file, crc64.Checksum(body, crcTable))
	if err := os.WriteFile(filepath.Join(dir, "snap"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	var warned bool
	logger := slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		warned = warned || bytes.Contains(p, []byte("re-host the dataset"))
		return len(p), nil
	}), nil))
	st2, err := Open(root, Options{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recs, err := st2.Load()
	if err != nil {
		t.Fatalf("load failed outright: %v", err)
	}
	if len(recs) != 1 || recs[0].Record.Name != "ok" || !warned {
		t.Fatalf("loaded %d records, warned=%v: want only the unsharded one and a warning", len(recs), warned)
	}
}

// FuzzStoreCodec: no snapshot or WAL body panics the decoders, and whatever
// decodes re-encodes to bytes that decode to the same value.
func FuzzStoreCodec(f *testing.F) {
	for _, rec := range codecRecords() {
		body, err := marshalRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, up := range codecUpdates() {
		f.Add(marshalUpdate(up))
	}
	for _, h := range []string{parentDocsBody, parentShardedBody} {
		parent, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(parent)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if rec, err := unmarshalRecord(body); err == nil {
			again, err := marshalRecord(rec)
			if err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
			if got, err := unmarshalRecord(again); err != nil || !reflect.DeepEqual(got, rec) {
				t.Fatalf("record re-decodes to %+v (%v), want %+v", got, err, rec)
			}
		}
		if up, err := unmarshalUpdate(body); err == nil {
			if got, err := unmarshalUpdate(marshalUpdate(up)); err != nil || !reflect.DeepEqual(got, up) {
				t.Fatalf("update re-decodes to %+v (%v), want %+v", got, err, up)
			}
		}
	})
}

func TestUpdateCodecRoundTrip(t *testing.T) {
	for i, up := range codecUpdates() {
		body := marshalUpdate(up)
		got, err := unmarshalUpdate(body)
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if !reflect.DeepEqual(cloneUpdate(up), cloneUpdate(got)) {
			t.Fatalf("update %d mismatch: got %+v want %+v", i, got, up)
		}
		for j := 0; j < len(body); j++ {
			if _, err := unmarshalUpdate(body[:j]); err == nil {
				t.Fatalf("update %d truncated to %d bytes still unmarshals", i, j)
			}
		}
	}
}

// TestMarshalUpdateAllocBudget: a WAL record is sized before it is encoded,
// so encoding one is one allocation of exactly its length, where growing it
// from one byte took eight for the churn-shaped update below. The other
// updates put counts of one, two and three varint bytes through the sizing.
func TestMarshalUpdateAllocBudget(t *testing.T) {
	sets := func(n, size int) [][]uint64 {
		ss := make([][]uint64, n)
		for i := range ss {
			ss[i] = make([]uint64, size)
		}
		return ss
	}
	churn := &Update{Version: 1 << 40, AddSets: sets(4, 10), RemoveSets: sets(4, 10)}
	ups := append(codecUpdates(), churn,
		&Update{Version: 3, Add: make([]uint64, 200), Remove: make([]uint64, 20000)},
		&Update{AddSets: sets(130, 127), RemoveSets: sets(2, 16400)})
	for i, up := range ups {
		if body := marshalUpdate(up); len(body) != cap(body) || len(body) != updateSize(up) {
			t.Errorf("update %d: %d bytes in a buffer of %d, sized %d", i, len(body), cap(body), updateSize(up))
		}
	}
	if n := testing.AllocsPerRun(100, func() { marshalUpdate(churn) }); n != 1 {
		t.Fatalf("encoding a churn update allocates %.0f objects, want 1", n)
	}
}

// exerciseStore runs the shared backend contract: snapshot, updates, load,
// compaction retirement, drop.
func exerciseStore(t *testing.T, st Store) {
	t.Helper()
	rec := testRecord("docs")
	if err := st.SaveSnapshot(rec); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := st.AppendUpdate("nope", &Update{Version: 1}); err == nil {
		t.Fatal("append to unknown dataset succeeded")
	}
	for v := uint64(4); v <= 6; v++ {
		if _, err := st.AppendUpdate("docs", &Update{Version: v, AddSets: [][]uint64{{v}}}); err != nil {
			t.Fatalf("append v%d: %v", v, err)
		}
	}
	recs, err := st.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(recs) != 1 || recs[0].Record.Name != "docs" {
		t.Fatalf("load returned %d records", len(recs))
	}
	if got := recs[0]; got.Record.Version != 3 || len(got.Updates) != 3 ||
		got.Updates[0].Version != 4 || got.Updates[2].Version != 6 {
		t.Fatalf("unexpected recovery state: version=%d updates=%d", got.Record.Version, len(got.Updates))
	}
	if !reflect.DeepEqual(recs[0].Record, normalize(rec)) {
		t.Fatalf("recovered record mismatch:\n got %+v\nwant %+v", recs[0].Record, rec)
	}
	// Compaction: a snapshot at the current head version retires every
	// logged update (the server always snapshots at the head, under the
	// dataset lock, so no update ever outruns the snapshot).
	rec5 := testRecord("docs")
	rec5.Version = 6
	if err := st.SaveSnapshot(rec5); err != nil {
		t.Fatalf("compact save: %v", err)
	}
	if _, err := st.AppendUpdate("docs", &Update{Version: 7, AddSets: [][]uint64{{7}}}); err != nil {
		t.Fatal(err)
	}
	recs, err = st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs[0].Updates) != 1 || recs[0].Updates[0].Version != 7 {
		t.Fatalf("post-compaction replay has %d updates (want just v7)", len(recs[0].Updates))
	}
	if err := st.Drop("docs"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if recs, err = st.Load(); err != nil || len(recs) != 0 {
		t.Fatalf("dropped dataset still loads: %v, %d records", err, len(recs))
	}
}

func TestMemStoreContract(t *testing.T) { exerciseStore(t, NewMem()) }

func TestDiskStoreContract(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	exerciseStore(t, st)
}

// TestDiskReopen proves durability across handle lifetimes: a second Disk
// over the same root recovers everything the first wrote.
func TestDiskReopen(t *testing.T) {
	root := t.TempDir()
	st, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(&Record{Name: "ids", Kind: KindSet, Elems: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendUpdate("ids", &Update{Version: 1, Add: []uint64{3}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recs, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Updates) != 1 || recs[0].Updates[0].Add[0] != 3 {
		t.Fatalf("reopened store lost state: %+v", recs)
	}
	// Appending through the reopened store must extend, not clobber.
	if _, err := st2.AppendUpdate("ids", &Update{Version: 2, Add: []uint64{4}}); err != nil {
		t.Fatal(err)
	}
	recs, _ = st2.Load()
	if len(recs[0].Updates) != 2 {
		t.Fatalf("append after reopen lost the prior entry: %d updates", len(recs[0].Updates))
	}
}

// walPath digs out the single dataset's WAL file path.
func walPath(t *testing.T, root string) string {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one dataset dir: %v, %d entries", err, len(entries))
	}
	return filepath.Join(root, entries[0].Name(), "wal")
}

// TestDiskTornWALTail damages the WAL tail every way a crash can (torn
// header, torn body, flipped payload bit, trailing garbage) and asserts the
// intact prefix replays, the file is physically truncated, a warning is
// logged, and nothing panics.
func TestDiskTornWALTail(t *testing.T) {
	cases := []struct {
		name   string
		mangle func([]byte) []byte
		keep   int // updates expected to survive
	}{
		{"torn-header", func(b []byte) []byte { return b[:len(b)-3] }, 2},
		{"torn-body", func(b []byte) []byte { return b[:len(b)-14] }, 2},
		{"bit-flip-tail", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, 2},
		{"garbage-appended", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef, 9, 9, 9, 9, 9, 9, 9, 9) }, 3},
		{"empty-to-garbage", func(b []byte) []byte { return []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0} }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			st, err := Open(root, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SaveSnapshot(&Record{Name: "ids", Kind: KindSet, Elems: []uint64{1}}); err != nil {
				t.Fatal(err)
			}
			for v := uint64(1); v <= 3; v++ {
				if _, err := st.AppendUpdate("ids", &Update{Version: v, Add: []uint64{v * 10}}); err != nil {
					t.Fatal(err)
				}
			}
			st.Close()
			wp := walPath(t, root)
			buf, err := os.ReadFile(wp)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(wp, tc.mangle(bytes.Clone(buf)), 0o644); err != nil {
				t.Fatal(err)
			}

			var warned bool
			logger := slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
				if bytes.Contains(p, []byte("truncating damaged WAL tail")) {
					warned = true
				}
				return len(p), nil
			}), nil))
			st2, err := Open(root, Options{Logger: logger})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			recs, err := st2.Load()
			if err != nil {
				t.Fatalf("load after %s: %v", tc.name, err)
			}
			if len(recs) != 1 {
				t.Fatalf("lost the dataset after %s", tc.name)
			}
			if got := len(recs[0].Updates); got != tc.keep {
				t.Fatalf("%s: %d updates survived, want %d", tc.name, got, tc.keep)
			}
			if !recs[0].TruncatedWAL {
				t.Fatalf("%s: truncation not reported", tc.name)
			}
			if !warned {
				t.Fatalf("%s: no warning logged", tc.name)
			}
			// The damage is physically gone: a fresh load is clean.
			recs2, err := st2.Load()
			if err != nil || recs2[0].TruncatedWAL {
				t.Fatalf("%s: damage persisted after truncation: %v", tc.name, err)
			}
			// And the log keeps working: the next append lands after the
			// intact prefix and replays.
			next := recs[0].Record.Version + uint64(tc.keep) + 1
			if _, err := st2.AppendUpdate("ids", &Update{Version: next, Add: []uint64{99}}); err != nil {
				t.Fatal(err)
			}
			recs3, err := st2.Load()
			if err != nil || len(recs3[0].Updates) != tc.keep+1 {
				t.Fatalf("%s: append after truncation broken: %v", tc.name, err)
			}
		})
	}
}

// TestDiskCrashedCompaction simulates the two crash windows inside
// SaveSnapshot: (a) tmp written but never renamed — the old snapshot and
// full WAL must win; (b) renamed but WAL not truncated — replay must skip
// the stale prefix via the version rule.
func TestDiskCrashedCompaction(t *testing.T) {
	root := t.TempDir()
	st, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(&Record{Name: "ids", Kind: KindSet, Elems: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 4; v++ {
		if _, err := st.AppendUpdate("ids", &Update{Version: v, Add: []uint64{v}}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	dsdir := filepath.Dir(walPath(t, root))

	// (a) Crash before rename: a stray snap.tmp must be ignored and removed.
	if err := os.WriteFile(filepath.Join(dsdir, "snap.tmp"), []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st2.Load()
	if err != nil || len(recs) != 1 || recs[0].Record.Version != 0 || len(recs[0].Updates) != 4 {
		t.Fatalf("crash-before-rename recovery wrong: %v %+v", err, recs)
	}
	if _, err := os.Stat(filepath.Join(dsdir, "snap.tmp")); err == nil {
		t.Fatal("stray snap.tmp not cleaned up")
	}
	st2.Close()

	// (b) Crash after rename, before WAL truncate: write a version-3
	// snapshot directly (as SaveSnapshot would have), leave the WAL intact.
	snapOnly, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := marshalRecord(&Record{Name: "ids", Kind: KindSet, Version: 3, Elems: []uint64{1, 2, 3}})
	buf := append(append([]byte{}, snapMagic[:]...), body...)
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(body, crcTable))
	if err := os.WriteFile(filepath.Join(dsdir, "snap"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = snapOnly.Load()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Record.Version != 3 || len(recs[0].Updates) != 1 || recs[0].Updates[0].Version != 4 {
		t.Fatalf("crash-after-rename recovery wrong: version=%d updates=%+v", recs[0].Record.Version, recs[0].Updates)
	}
	snapOnly.Close()
}

// TestDiskCorruptSnapshotSkipped asserts a rotted snapshot skips the dataset
// with a warning instead of failing the whole recovery.
func TestDiskCorruptSnapshotSkipped(t *testing.T) {
	root := t.TempDir()
	st, _ := Open(root, Options{})
	if err := st.SaveSnapshot(&Record{Name: "ids", Kind: KindSet, Elems: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(&Record{Name: "ok", Kind: KindSet, Elems: []uint64{2}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Flip a byte in the middle of ids' snapshot.
	var idsDir string
	entries, _ := os.ReadDir(root)
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[:3] == "ids" {
			idsDir = filepath.Join(root, e.Name())
		}
	}
	sp := filepath.Join(idsDir, "snap")
	buf, _ := os.ReadFile(sp)
	buf[len(buf)/2] ^= 0xff
	os.WriteFile(sp, buf, 0o644)

	st2, _ := Open(root, Options{})
	defer st2.Close()
	recs, err := st2.Load()
	if err != nil {
		t.Fatalf("load failed outright: %v", err)
	}
	if len(recs) != 1 || recs[0].Record.Name != "ok" {
		t.Fatalf("expected only the intact dataset, got %+v", recs)
	}
}

// TestDiskCompactionSignal asserts the WAL-size threshold asks for
// compaction and a snapshot resets it.
func TestDiskCompactionSignal(t *testing.T) {
	st, err := Open(t.TempDir(), Options{CompactBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.SaveSnapshot(&Record{Name: "ids", Kind: KindSet}); err != nil {
		t.Fatal(err)
	}
	var compact bool
	v := uint64(0)
	for i := 0; i < 100 && !compact; i++ {
		v++
		compact, err = st.AppendUpdate("ids", &Update{Version: v, Add: []uint64{v}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !compact {
		t.Fatal("compaction never requested")
	}
	if err := st.SaveSnapshot(&Record{Name: "ids", Kind: KindSet, Version: v}); err != nil {
		t.Fatal(err)
	}
	v++
	compact, err = st.AppendUpdate("ids", &Update{Version: v, Add: []uint64{v}})
	if err != nil || compact {
		t.Fatalf("WAL size not reset by snapshot: compact=%v err=%v", compact, err)
	}
}

// faultyWAL wraps a dataset's WAL handle: its next Write stops after half the
// frame, or its next Sync fails, or its next Truncate does.
type faultyWAL struct {
	walFile
	halfWrite, failSync, failTruncate bool
}

var errInjected = errors.New("injected fault")

func (w *faultyWAL) Write(p []byte) (int, error) {
	if w.halfWrite {
		w.halfWrite = false
		n, _ := w.walFile.Write(p[:len(p)/2])
		return n, errInjected
	}
	return w.walFile.Write(p)
}

func (w *faultyWAL) Sync() error {
	if w.failSync {
		w.failSync = false
		return errInjected
	}
	return w.walFile.Sync()
}

func (w *faultyWAL) Truncate(size int64) error {
	if w.failTruncate {
		w.failTruncate = false
		return errInjected
	}
	return w.walFile.Truncate(size)
}

// walWithFault opens a store holding "ids" at version 1 with v2 journaled,
// and wraps its WAL handle.
func walWithFault(t *testing.T, fault faultyWAL) *Disk {
	t.Helper()
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.SaveSnapshot(&Record{Name: "ids", Kind: KindSet, Version: 1, Elems: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendUpdate("ids", &Update{Version: 2, Add: []uint64{2}}); err != nil {
		t.Fatal(err)
	}
	df := st.dss["ids"]
	fault.walFile = df.wal
	df.wal = &fault
	return st
}

// TestDiskFailedAppendRollsBack: an append whose fsync fails after a full
// write, or whose write stops half way, leaves no bytes behind. The server does
// not commit it, so the next acknowledged update reuses its version, and
// recovery must replay that one, not the failed one and not a gap.
func TestDiskFailedAppendRollsBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faultyWAL
	}{
		{"fsync-fails-after-full-write", faultyWAL{failSync: true}},
		{"write-stops-half-way", faultyWAL{halfWrite: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := walWithFault(t, tc.fault)
			if _, err := st.AppendUpdate("ids", &Update{Version: 3, Add: []uint64{666}}); !errors.Is(err, errInjected) {
				t.Fatalf("faulty append: err = %v, want the injected fault", err)
			}
			if _, err := st.AppendUpdate("ids", &Update{Version: 3, Add: []uint64{42}}); err != nil {
				t.Fatalf("append after a rolled-back one: %v", err)
			}
			recs, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			var got []Update
			for _, up := range recs[0].Updates {
				got = append(got, *up)
			}
			want := []Update{{Version: 2, Add: []uint64{2}}, {Version: 3, Add: []uint64{42}}}
			if recs[0].TruncatedWAL || !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered truncated=%v updates %+v, want %+v", recs[0].TruncatedWAL, got, want)
			}
		})
	}
}

// TestDiskFailedRollbackRefusesAppends: when the cut after a failed append
// fails too, the WAL's tail is unknown, so it takes no append until a snapshot
// resets it.
func TestDiskFailedRollbackRefusesAppends(t *testing.T) {
	st := walWithFault(t, faultyWAL{failSync: true, failTruncate: true})
	if _, err := st.AppendUpdate("ids", &Update{Version: 3, Add: []uint64{666}}); !errors.Is(err, errInjected) {
		t.Fatalf("faulty append: err = %v, want the injected fault", err)
	}
	if _, err := st.AppendUpdate("ids", &Update{Version: 3, Add: []uint64{42}}); err == nil {
		t.Fatal("a WAL with an unknown tail took an append")
	}
	if err := st.SaveSnapshot(&Record{Name: "ids", Kind: KindSet, Version: 2, Elems: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendUpdate("ids", &Update{Version: 3, Add: []uint64{42}}); err != nil {
		t.Fatalf("append after the snapshot: %v", err)
	}
	recs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := recs[0]; got.Record.Version != 2 || len(got.Updates) != 1 || got.Updates[0].Add[0] != 42 {
		t.Fatalf("recovered version %d with updates %+v, want v2 then v3 add=[42]", got.Record.Version, got.Updates)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// marshalUpdate encodes up as the WAL frames it: one buffer of exactly its
// length.
func marshalUpdate(up *Update) []byte {
	return appendUpdate(make([]byte, 0, updateSize(up)), up)
}
