// Package wire implements the framed byte codec the sosrnet client/server
// speak over a net.Conn, plus an Endpoint: one party's end of such a
// connection, with the in-process transport's accounting.
//
// Every message travels as one frame:
//
//	magic   [4]byte  "SOSW"
//	version byte     1
//	labelLen byte
//	payloadLen uint32 LE
//	label   [labelLen]byte
//	payload [payloadLen]byte
//	crc     uint32 LE   CRC-32C over everything above
//
// The label is the same string the in-process transport records ("iblt",
// "cascade-iblts", ...), so a wire transcript and a simulated Session
// transcript correspond frame-for-frame; total wire bytes are the protocol
// payload bytes plus Overhead(label) per frame. Labels starting with "ctl/"
// are session control (handshake, completion reports) and are excluded from
// protocol Stats.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic opens every frame.
var Magic = [4]byte{'S', 'O', 'S', 'W'}

// Version is the current framing version.
const Version = 1

// headerLen is magic + version + labelLen + payloadLen.
const headerLen = 4 + 1 + 1 + 4

// crcLen trails every frame.
const crcLen = 4

// MaxLabel is the longest permitted frame label.
const MaxLabel = 255

// DefaultMaxPayload bounds accepted frame payloads unless a reader overrides
// it — large enough for any realistic IBLT cascade, small enough that a
// hostile length field cannot OOM the peer.
const DefaultMaxPayload = 1 << 28

// CtlPrefix marks session-control labels, excluded from protocol Stats.
const CtlPrefix = "ctl/"

// IsControl reports whether a label names a control frame.
func IsControl(label string) bool {
	return len(label) >= len(CtlPrefix) && label[:len(CtlPrefix)] == CtlPrefix
}

// Framing errors.
var (
	// ErrBadMagic indicates the stream does not carry sosr frames.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrVersion indicates an incompatible framing version.
	ErrVersion = errors.New("wire: unsupported frame version")
	// ErrChecksum indicates frame corruption in transit.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrTooLarge indicates a frame exceeding the reader's payload bound or
	// a label exceeding MaxLabel.
	ErrTooLarge = errors.New("wire: frame too large")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Overhead returns the framing bytes added around a payload sent under
// label: header, label and trailing checksum.
func Overhead(label string) int { return headerLen + len(label) + crcLen }

// FrameSize returns the exact on-the-wire size of a frame.
func FrameSize(label string, payloadLen int) int { return Overhead(label) + payloadLen }

// AppendFrame appends the encoded frame to dst and returns the result.
func AppendFrame(dst []byte, label string, payload []byte) ([]byte, error) {
	if len(label) > MaxLabel {
		return nil, fmt.Errorf("%w: label %d bytes", ErrTooLarge, len(label))
	}
	if len(payload) > int(^uint32(0)) {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(payload))
	}
	start := len(dst)
	dst = append(dst, Magic[:]...)
	dst = append(dst, Version, byte(len(label)))
	var sz [4]byte
	binary.LittleEndian.PutUint32(sz[:], uint32(len(payload)))
	dst = append(dst, sz[:]...)
	dst = append(dst, label...)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], castagnoli)
	var cb [4]byte
	binary.LittleEndian.PutUint32(cb[:], crc)
	return append(dst, cb[:]...), nil
}

// WriteFrame encodes one frame to w, returning the bytes written.
func WriteFrame(w io.Writer, label string, payload []byte) (int, error) {
	buf, err := AppendFrame(make([]byte, 0, FrameSize(label, len(payload))), label, payload)
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

// ReadFrame decodes one frame from r. maxPayload ≤ 0 means
// DefaultMaxPayload. It returns the label, the payload, and the total bytes
// consumed. Truncated streams surface io.ErrUnexpectedEOF (or io.EOF when no
// frame byte arrived at all, so callers can treat a clean close distinctly).
func ReadFrame(r io.Reader, maxPayload int) (label string, payload []byte, n int, err error) {
	var hdr [headerLen]byte
	labelLen, payloadLen, n, err := readHeader(r, &hdr, maxPayload)
	if err != nil {
		return "", nil, n, err
	}
	body := make([]byte, bodyLen(labelLen, payloadLen))
	bn, err := readBody(r, &hdr, body, labelLen, payloadLen)
	n += bn
	if err != nil {
		return "", nil, n, err
	}
	return string(body[:labelLen]), body[labelLen : labelLen+payloadLen : labelLen+payloadLen], n, nil
}

// A frame is read in two steps so that a reader waiting for the next frame
// holds nothing payload-sized: readHeader blocks until the fixed-size header
// has arrived and validates it; only then does the caller find a body buffer
// of bodyLen bytes and hand it to readBody.

// readHeader reads and validates a frame header into hdr, returning the label
// and payload lengths it announces and the bytes consumed.
func readHeader(r io.Reader, hdr *[headerLen]byte, maxPayload int) (labelLen, payloadLen, n int, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	n, err = io.ReadFull(r, hdr[:])
	if err != nil {
		if errors.Is(err, io.EOF) && n > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, n, err
	}
	if [4]byte(hdr[:4]) != Magic {
		return 0, 0, n, ErrBadMagic
	}
	if hdr[4] != Version {
		return 0, 0, n, fmt.Errorf("%w: %d", ErrVersion, hdr[4])
	}
	// Compare in uint64 before converting: on 32-bit platforms a hostile
	// length ≥ 2^31 would wrap negative as int and slip past the bound.
	rawLen := binary.LittleEndian.Uint32(hdr[6:])
	if uint64(rawLen) > uint64(maxPayload) {
		return 0, 0, n, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, rawLen, maxPayload)
	}
	return int(hdr[5]), int(rawLen), n, nil
}

// bodyLen is what follows a header on the wire: label, payload, checksum.
func bodyLen(labelLen, payloadLen int) int { return labelLen + payloadLen + crcLen }

// readBody reads the rest of the frame hdr announced into body (exactly
// bodyLen bytes) and verifies the checksum; the label is body[:labelLen] and
// the payload follows it.
func readBody(r io.Reader, hdr *[headerLen]byte, body []byte, labelLen, payloadLen int) (n int, err error) {
	n, err = io.ReadFull(r, body)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return n, err
	}
	crc := crc32.Checksum(hdr[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, body[:labelLen+payloadLen])
	if binary.LittleEndian.Uint32(body[labelLen+payloadLen:]) != crc {
		return n, ErrChecksum
	}
	return n, nil
}
