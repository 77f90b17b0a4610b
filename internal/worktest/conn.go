package worktest

import (
	"context"
	"encoding/binary"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sosr/internal/wire"
)

// Fault is one way a step can fail under the system: a connection that
// breaks, or a store that refuses a write.
type Fault int32

const (
	NoFault Fault = iota
	// ResetIdle: the parked connection dies before the next hello is written.
	ResetIdle
	// ShortWrite: the hello goes out half written, then the connection dies.
	ShortWrite
	// ResetMidFrame: the session's second frame goes out half written, then
	// the connection dies.
	ResetMidFrame
	// BitFlip: one bit flips in the first payload byte of the next frame
	// read that is not session control: the protocol payload of the session,
	// never the accept, never a CRC byte, so only the frame's CRC can catch it.
	BitFlip
	// StallRead: the next frame body read waits out the connection deadline.
	StallRead
	// AppendFails: the store refuses the update's WAL append (a failed fsync,
	// a full disk).
	AppendFails
	// SnapshotFails: the store refuses the snapshot.
	SnapshotFails
)

var faultNames = []string{"none", "reset-idle", "short-write", "reset-mid-frame", "bit-flip", "stall-read", "append-fails", "snapshot-fails"}

func (f Fault) String() string { return faultNames[f] }

// ConnFaults are the faults a Conn injects.
var ConnFaults = []Fault{ResetIdle, ShortWrite, ResetMidFrame, BitFlip, StallRead}

// Faults holds the one fault armed on the connections that share it. The
// first event the fault matches fires it and disarms it.
type Faults struct {
	armed  atomic.Int32
	writes atomic.Int32
}

// Arm arms f for the next session; NoFault drops one that has not fired.
func (fs *Faults) Arm(f Fault) {
	fs.writes.Store(0)
	fs.armed.Store(int32(f))
}

// Fire reports whether f is armed, disarming it: the caller injects it.
func (fs *Faults) Fire(f Fault) bool {
	return fs != nil && fs.armed.CompareAndSwap(int32(f), int32(NoFault))
}

// headerLen is a wire frame header (magic, version, label length, payload
// length): a read longer than it is a frame body. crcLen trails the body.
const headerLen, crcLen = 10, 4

// Conn is a net.Conn that counts the bytes it moves into its listener and
// injects the faults armed on it.
type Conn struct {
	net.Conn
	ln       *Listener // nil on a dialed connection
	faults   *Faults   // nil when none are armed on it
	stall    sync.Once
	deadline time.Time
	// A dialed connection follows the frames it reads, so that a flipped bit
	// lands in a payload: at is how much of the current frame has arrived,
	// hdr and label what of its header and label.
	at    int
	hdr   [headerLen]byte
	label []byte
}

// Wrap returns conn with faults armed through fs.
func Wrap(conn net.Conn, fs *Faults) *Conn { return &Conn{Conn: conn, faults: fs} }

func (c *Conn) SetDeadline(t time.Time) error {
	c.deadline = t
	return c.Conn.SetDeadline(t)
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.ln != nil {
		c.stall.Do(func() { time.Sleep(time.Duration(c.ln.Stall.Load())) })
	}
	body := len(p) > headerLen
	if body && c.faults.Fire(StallRead) {
		// What the reader sees of a peer that goes quiet: nothing, until
		// the deadline.
		time.Sleep(time.Until(c.deadline))
		return 0, os.ErrDeadlineExceeded
	}
	n, err := c.Conn.Read(p)
	if c.faults != nil {
		c.follow(p[:n])
	}
	c.count(n)
	return n, err
}

// follow moves the frame cursor over p, the bytes just read, and flips a bit
// of the first payload byte of a frame that is not session control when
// BitFlip is armed.
func (c *Conn) follow(p []byte) {
	for i := range p {
		if c.at < headerLen {
			c.hdr[c.at] = p[i]
		}
		labelLen, payloadLen := int(c.hdr[5]), int(binary.LittleEndian.Uint32(c.hdr[6:]))
		switch body := c.at - headerLen; {
		case body < 0:
		case body < labelLen:
			c.label = append(c.label, p[i])
		case body == labelLen && payloadLen > 0 && !wire.IsControl(string(c.label)) && c.faults.Fire(BitFlip):
			p[i] ^= 0x10
		}
		if c.at++; c.at >= headerLen && c.at == headerLen+labelLen+payloadLen+crcLen {
			c.at, c.label = 0, c.label[:0]
		}
	}
}

func (c *Conn) Write(p []byte) (int, error) {
	if fs := c.faults; fs != nil {
		switch w := fs.writes.Add(1); {
		case w == 1 && fs.Fire(ResetIdle):
			c.Conn.Close()
			return 0, net.ErrClosed
		case w == 1 && fs.Fire(ShortWrite), w == 2 && fs.Fire(ResetMidFrame):
			n, _ := c.Conn.Write(p[:len(p)/2])
			c.count(n)
			c.Conn.Close()
			return n, io.ErrShortWrite
		}
	}
	n, err := c.Conn.Write(p)
	c.count(n)
	return n, err
}

// count adds n bytes to the listener's count and severs the connection once
// that count reaches the listener's KillAfter.
func (c *Conn) count(n int) {
	if c.ln == nil {
		return
	}
	total := c.ln.Bytes.Add(int64(n))
	if ka := c.ln.KillAfter.Load(); ka > 0 && total >= ka {
		c.Conn.Close()
	}
}

// Listener wraps what it accepts in Conns: an independent count of the bytes
// the server moved, and faults on the server's side.
type Listener struct {
	net.Listener
	Bytes    atomic.Int64
	Accepted atomic.Int64
	// Stall is how long (in nanoseconds) each connection waits before its
	// first read.
	Stall atomic.Int64
	// KillAfter, when positive, severs every connection on its next read or
	// write once Bytes has reached it: 1 is a replica that has died.
	KillAfter atomic.Int64
}

func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.Accepted.Add(1)
	return &Conn{Conn: c, ln: l}, nil
}

// Handler is a slog.Handler that hands every record to the function; tests
// hang their checks off a server's stable log messages.
type Handler func(r slog.Record)

func (h Handler) Enabled(context.Context, slog.Level) bool      { return true }
func (h Handler) Handle(_ context.Context, r slog.Record) error { h(r); return nil }
func (h Handler) WithAttrs([]slog.Attr) slog.Handler            { return h }
func (h Handler) WithGroup(string) slog.Handler                 { return h }

// Sessions counts the "session finished" records of the servers logging to
// it: a server logs one per session after reading the client's closing
// frame, so once it has, the bytes of that session on its listener are final.
type Sessions struct{ atomic.Int64 }

// Logger returns a logger that counts into s.
func (s *Sessions) Logger() *slog.Logger {
	return slog.New(Handler(func(r slog.Record) {
		if r.Message == "session finished" {
			s.Add(1)
		}
	}))
}

// Wait blocks until n sessions have finished.
func (s *Sessions) Wait(t testing.TB, n int64) {
	t.Helper()
	WaitFor(t, "finished sessions", func() bool { return s.Load() >= n })
}

// WaitFor polls cond until it holds, failing the test after ten seconds.
func WaitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
