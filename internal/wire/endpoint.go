package wire

import (
	"fmt"
	"io"

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
// Err() reports it.
//
// An Endpoint is owned by one goroutine, the one running the session on its
// connection, with no exceptions: every flow is ping-pong, so the owner reads
// when it needs the peer's next frame and nothing reads for it. The package
// starts no goroutine and nothing here is safe for concurrent use.
type Endpoint struct {
	rw    io.ReadWriter
	local transport.Role
	rec   *transport.Session
	err   error
	// bytesIn/bytesOut are the single source of wire-byte truth: every other
	// report (NetStats, session logs, /metrics) derives from them.
	bytesIn  int64
	bytesOut int64

	// hdr receives each frame header, so an endpoint waiting on an idle
	// connection holds these ten bytes and no buffer. labels keeps the
	// distinct labels received, the first maxLabels of them, and never evicts
	// one: the vocabulary is closed — sosrnet's flows use about twenty labels
	// between them, control frames included — so once a label has arrived, no
	// frame that carries it allocates a string, however a connection
	// interleaves the kinds. A label past the bound, which only a hostile peer
	// sends, is allocated and not kept.
	hdr     [headerLen]byte
	labels  [maxLabels]string
	nlabels int

	// held is the ring of delivered frames: RecvFrame parks each frame's
	// buffer here and returns to the pool the one that rotates out, so a
	// payload stays valid for heldFrames − 1 further receives.
	held  [heldFrames]*frameBuf
	hnext int
}

// heldFrames is the size of the delivered-frames ring: the frame RecvFrame
// just returned plus the three before it — comfortably above the two
// concurrently held payloads any protocol flow needs (graph/forest signature
// + edge/meta frames).
const heldFrames = 4

// maxLabels bounds an endpoint's table of received labels, above the
// vocabulary of every flow sosrnet runs.
const maxLabels = 32

// NewEndpoint wraps one side of a framed connection. local is the role this
// process plays (the sosrnet server is Alice, the client Bob).
func NewEndpoint(rw io.ReadWriter, local transport.Role) *Endpoint {
	return &Endpoint{rw: rw, local: local, rec: transport.New()}
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
func (e *Endpoint) WireBytes() (in, out int64) { return e.bytesIn, e.bytesOut }

// BytesRead returns the connection bytes the current session read, framing
// included.
func (e *Endpoint) BytesRead() int64 { return e.bytesIn }

// BytesWritten returns the connection bytes the current session wrote,
// framing included.
func (e *Endpoint) BytesWritten() int64 { return e.bytesOut }

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
	e.bytesIn, e.bytesOut = 0, 0
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
	e.bytesOut += int64(n)
	if err != nil {
		return e.fail(err)
	}
	if !IsControl(label) {
		e.rec.Record(e.local, label, len(payload))
	}
	return nil
}

// label returns b as a string, reusing the string of an equal label received
// before.
func (e *Endpoint) label(b []byte) string {
	for _, l := range e.labels[:e.nlabels] {
		if l == string(b) { // the comparison does not allocate
			return l
		}
	}
	l := string(b)
	if e.nlabels < len(e.labels) {
		e.labels[e.nlabels] = l
		e.nlabels++
	}
	return l
}

// RecvFrame reads the peer's next frame off the connection, recording protocol
// frames in the stats mirror. A frame announcing a payload over
// DefaultMaxPayload is refused before anything is sized for it. The body buffer is taken from the pool only
// after the header has arrived. The returned payload is backed by that pooled
// buffer: it stays valid for the next three receives and at most until
// EndSession, then the buffer is reused — retain a copy to hold it longer.
func (e *Endpoint) RecvFrame() (label string, payload []byte, err error) {
	if e.err != nil {
		return "", nil, e.err
	}
	labelLen, payloadLen, n, err := readHeader(e.rw, &e.hdr, DefaultMaxPayload)
	e.bytesIn += int64(n)
	if err != nil {
		return "", nil, e.fail(err)
	}
	need := bodyLen(labelLen, payloadLen)
	fb := getBuf(need)
	body := fb.b[:need]
	n, err = readBody(e.rw, &e.hdr, body, labelLen, payloadLen)
	e.bytesIn += int64(n)
	if err != nil {
		putBuf(fb)
		return "", nil, e.fail(err)
	}
	if old := e.held[e.hnext]; old != nil {
		putBuf(old)
	}
	e.held[e.hnext] = fb
	e.hnext = (e.hnext + 1) % heldFrames
	label = e.label(body[:labelLen])
	payload = body[labelLen : labelLen+payloadLen : labelLen+payloadLen]
	if !IsControl(label) {
		e.rec.Record(e.remote(), label, len(payload))
	}
	return label, payload, nil
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
