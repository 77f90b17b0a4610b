package wire

import (
	"fmt"
	"io"
	"sync/atomic"

	"sosr/internal/transport"
)

// Endpoint is one party's end of a framed connection: SendFrame writes a
// labelled frame, RecvFrame and RecvExpect read the peer's next one. Protocol
// frames are mirrored into an embedded transport.Session so Stats() reports
// exactly what the in-process simulation would; control frames ("ctl/...")
// count only toward WireBytes.
//
// A connection may carry several sessions one after the other: EndSession
// closes one session's books, so the next starts from zero and reports what
// a session on a connection of its own would.
//
// I/O failures follow the bufio.Writer model: the first error sticks,
// subsequent operations fail with it without touching the connection, and
// Err() reports it. An Endpoint is not safe for concurrent use; one session at
// a time owns it.
type Endpoint struct {
	rw         io.ReadWriter
	local      transport.Role
	rec        *transport.Session
	maxPayload int
	err        error
	// bytesIn/bytesOut are atomic so an observer (metrics collector, server
	// log) can read a live session's byte totals without racing the session
	// goroutine; they are the single source of wire-byte truth — every
	// other report (NetStats, session logs, /metrics) derives from them.
	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	// Reader state, owned by the goroutine that reads frames off the
	// connection: the session goroutine, or the read-ahead goroutine once one
	// is started. hdr receives each frame header, so a reader blocked on an
	// idle connection holds these ten bytes and no buffer. labels remembers
	// the last few distinct labels received: a conversation repeats a handful
	// of them, and a label already seen costs no string allocation.
	hdr    [headerLen]byte
	labels [4]string
	lnext  int

	// held is the ring of delivered frames: RecvFrame parks each frame's
	// buffer here and returns to the pool the one that rotates out, so a
	// payload stays valid for heldFrames − 1 further receives. Owned by the
	// session goroutine.
	held  [heldFrames]*frameBuf
	hnext int

	// ra delivers pipelined frames once StartReadAhead runs; raStop tells the
	// reader goroutine to discard an undelivered frame and exit.
	ra     chan raFrame
	raStop chan struct{}
}

// heldFrames is the size of the delivered-frames ring: the frame RecvFrame
// just returned plus the three before it — comfortably above the two
// concurrently held payloads any protocol flow needs (graph/forest signature
// + edge/meta frames).
const heldFrames = 4

// readAheadDepth bounds how many frames the reader goroutine decodes ahead of
// the session consuming them.
const readAheadDepth = 2

// raFrame is one received frame on its way to RecvFrame: from the reader
// goroutine through the read-ahead channel, or straight from readOne. Byte
// and stats accounting happen at consume time, so pipelined and synchronous
// sessions report identical totals at every protocol step.
type raFrame struct {
	label   string
	payload []byte
	buf     *frameBuf // backs payload; nil on error
	n       int
	err     error
}

// NewEndpoint wraps one side of a framed connection. local is the role this
// process plays (the sosrnet server is Alice, the client Bob).
func NewEndpoint(rw io.ReadWriter, local transport.Role) *Endpoint {
	return &Endpoint{rw: rw, local: local, rec: transport.New(), maxPayload: DefaultMaxPayload}
}

// SetMaxPayload bounds accepted frame payloads (≤ 0 restores the default).
func (e *Endpoint) SetMaxPayload(n int) {
	if n <= 0 {
		n = DefaultMaxPayload
	}
	e.maxPayload = n
}

// remote returns the peer's role.
func (e *Endpoint) remote() transport.Role {
	if e.local == transport.Alice {
		return transport.Bob
	}
	return transport.Alice
}

// Err returns the first I/O or framing error, if any.
func (e *Endpoint) Err() error { return e.err }

// fail records the first error.
func (e *Endpoint) fail(err error) error {
	if e.err == nil && err != nil {
		e.err = err
	}
	return err
}

// WireBytes returns the bytes read from and written to the connection in the
// current session, framing included.
func (e *Endpoint) WireBytes() (in, out int64) { return e.bytesIn.Load(), e.bytesOut.Load() }

// BytesRead returns the connection bytes the current session read, framing
// included. Safe to call concurrently with the session goroutine.
func (e *Endpoint) BytesRead() int64 { return e.bytesIn.Load() }

// BytesWritten returns the connection bytes the current session wrote,
// framing included. Safe to call concurrently with the session goroutine.
func (e *Endpoint) BytesWritten() int64 { return e.bytesOut.Load() }

// EndSession closes the books of one session: the buffers of the frames it
// was delivered go back to the pool — every payload RecvFrame returned is
// invalid from here on — and the byte counters and the stats mirror restart
// from zero, so the next session on this connection accounts exactly like the
// first. Call it where the conversation is quiescent (the session's last
// frame consumed, nothing of the next one consumed yet), whether the
// connection will carry another session or is about to be closed.
func (e *Endpoint) EndSession() {
	for i, fb := range e.held {
		if fb != nil {
			putBuf(fb)
			e.held[i] = nil
		}
	}
	e.bytesIn.Store(0)
	e.bytesOut.Store(0)
	e.rec.Reset()
}

// SendFrame writes a labeled frame from the local party, recording protocol
// frames in the stats mirror. The frame is encoded into a pooled buffer that
// goes back as soon as it is written.
func (e *Endpoint) SendFrame(label string, payload []byte) error {
	if e.err != nil {
		return e.err
	}
	fb := getBuf(FrameSize(label, len(payload)))
	buf, err := AppendFrame(fb.b[:0], label, payload)
	if err != nil {
		putBuf(fb)
		return e.fail(err)
	}
	n, err := e.rw.Write(buf)
	putBuf(fb)
	e.bytesOut.Add(int64(n))
	if err != nil {
		return e.fail(err)
	}
	if !IsControl(label) {
		e.rec.Record(e.local, label, len(payload))
	}
	return nil
}

// readOne decodes the next frame off the connection. The body buffer is taken
// from the pool only after the header has arrived. Called from the session
// goroutine, or from the read-ahead goroutine once one is started.
func (e *Endpoint) readOne() raFrame {
	labelLen, payloadLen, n, err := readHeader(e.rw, &e.hdr, e.maxPayload)
	if err != nil {
		return raFrame{n: n, err: err}
	}
	need := bodyLen(labelLen, payloadLen)
	fb := getBuf(need)
	body := fb.b[:need]
	bn, err := readBody(e.rw, &e.hdr, body, labelLen, payloadLen)
	n += bn
	if err != nil {
		putBuf(fb)
		return raFrame{n: n, err: err}
	}
	return raFrame{
		label:   e.label(body[:labelLen]),
		payload: body[labelLen : labelLen+payloadLen : labelLen+payloadLen],
		buf:     fb,
		n:       n,
	}
}

// label returns b as a string, reusing the string of a recently received
// equal label.
func (e *Endpoint) label(b []byte) string {
	for _, l := range e.labels {
		if l == string(b) { // the comparison does not allocate
			return l
		}
	}
	l := string(b)
	e.labels[e.lnext] = l
	e.lnext = (e.lnext + 1) % len(e.labels)
	return l
}

// StartReadAhead pipelines frame reads: a reader goroutine decodes frame k+1
// off the connection while the session is still processing frame k, up to
// readAheadDepth frames ahead. RecvFrame transparently consumes from the
// pipeline; byte and stats accounting stay at consume time, so totals match
// an unpipelined session at every step. The first read error is delivered in
// order and ends the pipeline. Idempotent; a no-op on an already failed
// endpoint.
//
// The goroutine lives as long as the connection, across sessions: between two
// of them it waits for the next frame header and holds no buffer. A read
// error — the peer closed or reset the connection, a deadline passed, the
// stream is not framed — leaves a connection nothing more can be read from,
// so the goroutine closes it (when it is an io.Closer): an idle connection
// whose peer went away gives back its descriptor without waiting for its
// owner to look. Closing the connection is also what unblocks and retires the
// goroutine; call StopReadAhead first when abandoning the endpoint, so a
// frame the goroutine already holds is discarded rather than waiting for a
// consumer.
func (e *Endpoint) StartReadAhead() {
	if e.ra != nil || e.err != nil {
		return
	}
	ch := make(chan raFrame, readAheadDepth)
	stop := make(chan struct{})
	e.ra, e.raStop = ch, stop
	go func() {
		defer close(ch)
		for {
			f := e.readOne()
			if f.err != nil {
				if c, ok := e.rw.(io.Closer); ok {
					_ = c.Close()
				}
			}
			select {
			case ch <- f:
			case <-stop:
				if f.buf != nil {
					putBuf(f.buf)
				}
				return
			}
			if f.err != nil {
				return
			}
		}
	}()
}

// StopReadAhead signals the reader goroutine to discard any undelivered
// frame and exit; it does not wait (a goroutine blocked in a conn read exits
// when the owner closes the connection). Safe to call when read-ahead was
// never started. The endpoint must not be used for further receives after
// stopping.
func (e *Endpoint) StopReadAhead() {
	if e.raStop != nil {
		close(e.raStop)
		e.raStop = nil
	}
}

// Pending reports whether the read-ahead goroutine has delivered something
// the session has not consumed. Between two sessions the peer is silent, so
// on an idle connection a pending delivery is the peer's close (or bytes that
// belong to no session) and the connection must not carry another one. It
// never blocks; false without read-ahead.
func (e *Endpoint) Pending() bool { return len(e.ra) > 0 }

// RecvFrame reads the peer's next frame, recording protocol frames in the
// stats mirror. The returned payload is backed by a pooled buffer: it stays
// valid for the next three receives and at most until EndSession, then the
// buffer is reused — retain a copy to hold it longer.
func (e *Endpoint) RecvFrame() (label string, payload []byte, err error) {
	if e.err != nil {
		return "", nil, e.err
	}
	var f raFrame
	if e.ra != nil {
		var ok bool
		if f, ok = <-e.ra; !ok {
			// Reader gone without delivering an error: only possible after
			// StopReadAhead, i.e. a receive on an abandoned endpoint.
			return "", nil, e.fail(io.ErrUnexpectedEOF)
		}
	} else {
		f = e.readOne()
	}
	e.bytesIn.Add(int64(f.n))
	if f.err != nil {
		return "", nil, e.fail(f.err)
	}
	if old := e.held[e.hnext]; old != nil {
		putBuf(old)
	}
	e.held[e.hnext] = f.buf
	e.hnext = (e.hnext + 1) % heldFrames
	if !IsControl(f.label) {
		e.rec.Record(e.remote(), f.label, len(f.payload))
	}
	return f.label, f.payload, nil
}

// RecvExpect reads the peer's next frame and requires the given label.
func (e *Endpoint) RecvExpect(label string) ([]byte, error) {
	got, payload, err := e.RecvFrame()
	if err != nil {
		return nil, err
	}
	if got != label {
		return nil, e.fail(fmt.Errorf("wire: expected frame %q, got %q", label, got))
	}
	return payload, nil
}

// Stats is the protocol-frame traffic, matching the in-process Session
// accounting frame-for-frame.
func (e *Endpoint) Stats() transport.Stats { return e.rec.Stats() }

// Messages exposes the recorded protocol frames (label/size/sender), for
// overhead audits and logs.
func (e *Endpoint) Messages() []transport.Msg { return e.rec.Messages() }
