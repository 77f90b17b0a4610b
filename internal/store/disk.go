package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sosr/internal/hashing"
)

// Disk layout: one directory per dataset under the root,
//
//	<root>/<sanitized-name>-<hash16>/
//	    snap        atomic checksummed snapshot (magic + record + crc64)
//	    snap.tmp    transient; a leftover one is a crashed snapshot write
//	    wal         append-only update log (len + crc32c + record frames)
//
// Crash-safety invariants:
//   - A snapshot becomes visible only via rename(2) of a fully fsynced tmp
//     file, so `snap` is always either the old complete snapshot or the new
//     complete snapshot, never a torn one.
//   - WAL entries carry the dataset version they produced, so a crash
//     between snapshot commit and WAL reset only leaves entries replay
//     skips (version <= snapshot version) — compaction needs no atomicity
//     across the two files.
//   - A torn or corrupted WAL tail is truncated at the last intact record
//     during Load, with a logged warning and a metric, never a panic; the
//     intact prefix replays normally.

// snapMagic heads every snapshot file; the trailing byte versions the
// container (the record body carries its own format byte too).
var snapMagic = [8]byte{'S', 'O', 'S', 'R', 'S', 'N', 'P', 1}

// walHeaderLen is the per-record frame header: u32 length + u32 crc32c.
const walHeaderLen = 8

// maxWALRecord bounds a single WAL record; a claimed length beyond it is
// treated as tail corruption rather than sized as an allocation.
const maxWALRecord = 1 << 30

// DefaultCompactBytes is the WAL size past which AppendUpdate asks the
// caller to compact.
const DefaultCompactBytes = 4 << 20

// dirHashSeed salts the directory-name hash (fixed: directory names must be
// stable across restarts).
const dirHashSeed = 0x50d5

// Options configures a Disk store.
type Options struct {
	// CompactBytes is the per-dataset WAL size threshold past which
	// AppendUpdate reports compact=true. 0 means DefaultCompactBytes;
	// negative disables compaction requests.
	CompactBytes int64
	// NoSync skips fsync calls. Crash durability is lost (OS-crash windows
	// appear); process-kill durability survives. Benchmarks and tests that
	// simulate crashes at the file level use it.
	NoSync bool
	// Logger receives recovery warnings (torn tails, skipped datasets).
	// Nil discards them.
	Logger *slog.Logger
}

// Disk is the durable backend. Per-dataset calls are serialized by the
// caller (the server holds its dataset lock across AppendUpdate and the
// in-memory commit); distinct datasets may be operated on concurrently.
type Disk struct {
	root string
	opt  Options
	met  *storeMetrics

	mu  sync.Mutex
	dss map[string]*dsFiles
}

// dsFiles is one dataset's open state. walErr, once set, refuses appends
// until a snapshot resets the WAL: a failed append could not be rolled back,
// so the bytes past walSize are unknown.
type dsFiles struct {
	dir     string
	wal     walFile
	walSize int64
	walErr  error
}

// walFile is the WAL handle as AppendUpdate uses it; *os.File is one, and a
// test wraps it to inject a failed write or fsync.
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Open prepares root (creating it if needed) and returns the store. Nothing
// is read until Load.
func Open(root string, opt Options) (*Disk, error) {
	if opt.CompactBytes == 0 {
		opt.CompactBytes = DefaultCompactBytes
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &Disk{root: root, opt: opt, dss: make(map[string]*dsFiles)}, nil
}

func (d *Disk) logger() *slog.Logger {
	if d.opt.Logger != nil {
		return d.opt.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// dsDirName renders a dataset's directory name: a readable sanitized prefix
// plus a hash of the exact name, so distinct names never collide and exotic
// names stay filesystem-safe.
func dsDirName(name string) string {
	safe := make([]byte, 0, len(name))
	for i := 0; i < len(name) && len(safe) < 48; i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	return fmt.Sprintf("%s-%016x", safe, hashing.HashBytes(dirHashSeed, []byte(name)))
}

// files returns (creating if asked) the dataset's open state.
func (d *Disk) files(name string, create bool) (*dsFiles, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	df := d.dss[name]
	if df != nil {
		return df, nil
	}
	dir := filepath.Join(d.root, dsDirName(name))
	if _, err := os.Stat(filepath.Join(dir, "snap")); err != nil {
		if !create {
			return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	df = &dsFiles{dir: dir}
	d.dss[name] = df
	return df, nil
}

func (d *Disk) sync(f interface{ Sync() error }) error {
	if d.opt.NoSync {
		return nil
	}
	return f.Sync()
}

// syncDir fsyncs a directory so a rename or unlink inside it is durable.
func (d *Disk) syncDir(dir string) error {
	if d.opt.NoSync {
		return nil
	}
	h, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer h.Close()
	return h.Sync()
}

// SaveSnapshot atomically persists rec and resets the dataset's WAL (entries
// at or below rec.Version are obsolete; the version-skip rule during replay
// keeps a crash between the rename and the truncate harmless).
func (d *Disk) SaveSnapshot(rec *Record) error {
	t0 := time.Now()
	body, err := marshalRecord(rec)
	if err != nil {
		return err
	}
	df, err := d.files(rec.Name, true)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(snapMagic)+len(body)+8)
	buf = append(buf, snapMagic[:]...)
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(body, crcTable))

	tmp := filepath.Join(df.dir, "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := d.sync(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(df.dir, "snap")); err != nil {
		return err
	}
	if err := d.syncDir(df.dir); err != nil {
		return err
	}
	// Snapshot committed: the WAL prefix is obsolete. Truncate through the
	// open append handle when there is one, else directly.
	if df.wal != nil {
		if err := df.wal.Truncate(0); err != nil {
			return err
		}
		if err := d.sync(df.wal); err != nil {
			return err
		}
	} else if err := os.Truncate(filepath.Join(df.dir, "wal"), 0); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	df.walSize, df.walErr = 0, nil
	d.met.snapshot(len(buf), time.Since(t0))
	return nil
}

// AppendUpdate durably appends one mutation to the dataset's WAL. On a failed
// write or fsync the WAL is cut back to its last acknowledged frame, so the
// caller, which does not commit, can journal the next mutation at the same
// version.
func (d *Disk) AppendUpdate(name string, up *Update) (bool, error) {
	t0 := time.Now()
	df, err := d.files(name, false)
	if err != nil {
		return false, err
	}
	if df.walErr != nil {
		return false, fmt.Errorf("store: WAL of %q refuses appends until the next snapshot: %w", name, df.walErr)
	}
	if df.wal == nil {
		f, err := os.OpenFile(filepath.Join(df.dir, "wal"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return false, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return false, err
		}
		df.wal, df.walSize = f, st.Size()
	}
	// The frame is the header and the body in one buffer of exactly its
	// length: the body is encoded in place, the header filled in after it.
	frame := appendUpdate(make([]byte, walHeaderLen, walHeaderLen+updateSize(up)), up)
	body := frame[walHeaderLen:]
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	_, err = df.wal.Write(frame)
	if err == nil {
		err = d.sync(df.wal)
	}
	if err != nil {
		rerr := df.wal.Truncate(df.walSize)
		if rerr == nil {
			rerr = d.sync(df.wal)
		}
		if rerr != nil {
			df.walErr = fmt.Errorf("rolling back a failed append: %w", rerr)
		}
		return false, err
	}
	df.walSize += int64(len(frame))
	d.met.append(len(frame), time.Since(t0))
	return d.opt.CompactBytes > 0 && df.walSize >= d.opt.CompactBytes, nil
}

// Load scans the root, returning every dataset whose snapshot reads back
// intact, with its replayable WAL suffix. Torn or corrupted WAL tails are
// physically truncated (warned, counted, never fatal); a dataset directory
// whose snapshot is missing or unreadable is skipped with a warning — a
// crashed host() that never committed its first snapshot leaves exactly
// that, and it was never acknowledged as hosted.
func (d *Disk) Load() ([]*Recovered, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	var out []*Recovered
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(d.root, e.Name())
		rec, err := d.loadSnapshot(dir)
		if err != nil {
			d.logger().Warn("store: skipping dataset directory", "dir", dir, "err", err.Error())
			// A leftover tmp from a crashed first snapshot is garbage.
			_ = os.Remove(filepath.Join(dir, "snap.tmp"))
			continue
		}
		// A committed tmp leftover (crash between write and rename of a
		// later snapshot) is superseded by whichever snap is current.
		_ = os.Remove(filepath.Join(dir, "snap.tmp"))
		ups, truncated, err := d.loadWAL(dir, rec)
		if err != nil {
			return nil, err
		}
		d.mu.Lock()
		if d.dss[rec.Name] == nil {
			d.dss[rec.Name] = &dsFiles{dir: dir}
		}
		d.mu.Unlock()
		out = append(out, &Recovered{Record: rec, Updates: ups, TruncatedWAL: truncated})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Record.Name < out[j].Record.Name })
	return out, nil
}

func (d *Disk) loadSnapshot(dir string) (*Record, error) {
	buf, err := os.ReadFile(filepath.Join(dir, "snap"))
	if err != nil {
		return nil, err
	}
	if len(buf) < len(snapMagic)+8 || [8]byte(buf[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot header", ErrCorrupt)
	}
	body := buf[len(snapMagic) : len(buf)-8]
	want := binary.LittleEndian.Uint64(buf[len(buf)-8:])
	if crc64.Checksum(body, crcTable) != want {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	return unmarshalRecord(body)
}

// loadWAL replays a dataset's WAL, returning the updates with versions past
// the snapshot's in order. The file is truncated at the first record that is
// torn, corrupt, or out of sequence.
func (d *Disk) loadWAL(dir string, rec *Record) ([]*Update, bool, error) {
	path := filepath.Join(dir, "wal")
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	crcT := crc32.MakeTable(crc32.Castagnoli)
	var ups []*Update
	var lastVersion uint64
	off, goodOff := 0, 0
	var tailErr string
	for off < len(buf) {
		if off+walHeaderLen > len(buf) {
			tailErr = "torn frame header"
			break
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		crc := binary.LittleEndian.Uint32(buf[off+4:])
		if n > maxWALRecord {
			tailErr = "absurd frame length"
			break
		}
		if off+walHeaderLen+n > len(buf) {
			tailErr = "torn frame body"
			break
		}
		body := buf[off+walHeaderLen : off+walHeaderLen+n]
		if crc32.Checksum(body, crcT) != crc {
			tailErr = "frame checksum mismatch"
			break
		}
		up, err := unmarshalUpdate(body)
		if err != nil {
			tailErr = err.Error()
			break
		}
		if lastVersion != 0 && up.Version != lastVersion+1 {
			tailErr = fmt.Sprintf("version gap (%d after %d)", up.Version, lastVersion)
			break
		}
		lastVersion = up.Version
		off += walHeaderLen + n
		goodOff = off
		if up.Version > rec.Version {
			ups = append(ups, up)
		}
	}
	if goodOff == len(buf) {
		return ups, false, nil
	}
	d.logger().Warn("store: truncating damaged WAL tail",
		"dataset", rec.Name, "path", path, "reason", tailErr,
		"good_bytes", goodOff, "dropped_bytes", len(buf)-goodOff)
	if err := os.Truncate(path, int64(goodOff)); err != nil {
		return nil, true, err
	}
	if err := d.syncDir(dir); err != nil {
		return nil, true, err
	}
	d.met.truncation()
	return ups, true, nil
}

// Drop removes a dataset's persisted state.
func (d *Disk) Drop(name string) error {
	d.mu.Lock()
	df := d.dss[name]
	delete(d.dss, name)
	d.mu.Unlock()
	dir := filepath.Join(d.root, dsDirName(name))
	if df != nil {
		dir = df.dir
		if df.wal != nil {
			df.wal.Close()
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return d.syncDir(d.root)
}

// Close releases open WAL handles.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, df := range d.dss {
		if df.wal != nil {
			if err := df.wal.Close(); err != nil && first == nil {
				first = err
			}
			df.wal = nil
		}
	}
	return first
}
