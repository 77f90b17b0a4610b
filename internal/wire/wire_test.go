package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"sosr/internal/prng"
	"sosr/internal/transport"
)

// writeFrame writes one AppendFrame frame to w, returning the bytes written.
func writeFrame(w io.Writer, label string, payload []byte) (int, error) {
	buf, err := AppendFrame(nil, label, payload)
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	n, err := writeFrame(&buf, "iblt", payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != FrameSize("iblt", len(payload)) || buf.Len() != n {
		t.Fatalf("wrote %d bytes, FrameSize says %d", n, FrameSize("iblt", len(payload)))
	}
	label, got, rn, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if label != "iblt" || !bytes.Equal(got, payload) || rn != n {
		t.Fatalf("round trip: label=%q payload=%v read=%d", label, got, rn)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, "ack", nil); err != nil {
		t.Fatal(err)
	}
	label, payload, _, err := ReadFrame(&buf, 0)
	if err != nil || label != "ack" || len(payload) != 0 {
		t.Fatalf("empty payload round trip: %q %v %v", label, payload, err)
	}
}

func TestFrameLabelTooLong(t *testing.T) {
	long := make([]byte, MaxLabel+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := writeFrame(io.Discard, string(long), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized label accepted: %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full, err := AppendFrame(nil, "cascade-iblts", []byte{9, 8, 7, 6})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		_, _, _, err := ReadFrame(bytes.NewReader(full[:cut]), 0)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
	// A fully empty stream is a clean EOF, not a truncation.
	if _, _, _, err := ReadFrame(bytes.NewReader(nil), 0); !errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestReadFrameCorruptedChecksum(t *testing.T) {
	full, err := AppendFrame(nil, "iblt", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Flipping any single non-header-structural byte must surface as a
	// checksum (or structural) error, never as a valid frame with altered
	// content.
	for i := 0; i < len(full); i++ {
		corrupt := append([]byte(nil), full...)
		corrupt[i] ^= 0x41
		label, payload, _, err := ReadFrame(bytes.NewReader(corrupt), 0)
		if err == nil {
			t.Fatalf("flip at %d accepted: label=%q payload=%v", i, label, payload)
		}
	}
}

func TestReadFrameBadMagicAndVersion(t *testing.T) {
	full, _ := AppendFrame(nil, "x", []byte{1})
	bad := append([]byte(nil), full...)
	bad[0] = 'X'
	if _, _, _, err := ReadFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), full...)
	bad[4] = 99
	if _, _, _, err := ReadFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v", err)
	}
}

func TestReadFrameOversizedRejected(t *testing.T) {
	full, err := AppendFrame(nil, "big", make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFrame(bytes.NewReader(full), 1024); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized frame accepted: %v", err)
	}
	// A hostile length field must be rejected before allocation.
	hostile := append([]byte(nil), full[:headerLen]...)
	hostile[6], hostile[7], hostile[8], hostile[9] = 0xff, 0xff, 0xff, 0x7f
	if _, _, _, err := ReadFrame(bytes.NewReader(hostile), 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("hostile length accepted: %v", err)
	}
}

func TestOverheadAccounting(t *testing.T) {
	if Overhead("iblt") != headerLen+4+crcLen {
		t.Fatalf("Overhead = %d", Overhead("iblt"))
	}
	var buf bytes.Buffer
	n, _ := writeFrame(&buf, "estimator", make([]byte, 100))
	if n != 100+Overhead("estimator") {
		t.Fatalf("FrameSize mismatch: %d", n)
	}
}

// endpointPair links two Endpoints over an in-memory full-duplex pipe.
func endpointPair(t *testing.T) (alice, bob *Endpoint) {
	t.Helper()
	ca, cb := net.Pipe()
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return NewEndpoint(ca, transport.Alice), NewEndpoint(cb, transport.Bob)
}

func TestEndpointChannelConversation(t *testing.T) {
	alice, bob := endpointPair(t)
	done := make(chan []byte, 1)
	go func() {
		// Bob's side: receive Alice's frame, answer with an ack.
		got, _ := bob.RecvExpect("iblt")
		got = bytes.Clone(got)
		_ = bob.SendFrame("ack", []byte{1})
		done <- got
	}()
	if err := alice.SendFrame("iblt", []byte{5, 6, 7}); err != nil {
		t.Fatalf("alice send failed: %v", err)
	}
	ackRecv, _ := alice.RecvExpect("ack")
	got := <-done
	if !bytes.Equal(got, []byte{5, 6, 7}) {
		t.Fatalf("bob received %v", got)
	}
	if len(ackRecv) != 1 || ackRecv[0] != 1 {
		t.Fatalf("alice received ack %v (err %v)", ackRecv, alice.Err())
	}
	// Both stats mirrors must agree with the in-process accounting: two
	// messages, two rounds, 4 protocol bytes.
	for _, e := range []*Endpoint{alice, bob} {
		st := e.Stats()
		if st.Messages != 2 || st.Rounds != 2 || st.TotalBytes != 4 || st.AliceBytes != 3 || st.BobBytes != 1 {
			t.Fatalf("endpoint stats = %+v", st)
		}
		if e.Err() != nil {
			t.Fatal(e.Err())
		}
	}
	in, out := alice.WireBytes()
	wantOut := int64(FrameSize("iblt", 3))
	wantIn := int64(FrameSize("ack", 1))
	if in != wantIn || out != wantOut {
		t.Fatalf("alice wire bytes in=%d out=%d want in=%d out=%d", in, out, wantIn, wantOut)
	}
}

func TestEndpointControlFramesExcludedFromStats(t *testing.T) {
	alice, bob := endpointPair(t)
	go func() {
		bob.RecvExpect("ctl/hello")
		bob.SendFrame("ctl/accept", []byte("ok"))
	}()
	if err := alice.SendFrame("ctl/hello", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.RecvExpect("ctl/accept"); err != nil {
		t.Fatal(err)
	}
	if st := alice.Stats(); st.Messages != 0 || st.TotalBytes != 0 {
		t.Fatalf("control frames leaked into protocol stats: %+v", st)
	}
	if in, out := alice.WireBytes(); in == 0 || out == 0 {
		t.Fatal("control frames missing from wire byte counters")
	}
}

func TestEndpointLabelMismatchSticks(t *testing.T) {
	alice, bob := endpointPair(t)
	go alice.SendFrame("iblt", []byte{1})
	if _, err := bob.RecvExpect("estimator"); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if bob.Err() == nil {
		t.Fatal("error did not stick")
	}
	// Subsequent operations are dead but must not panic or block: nothing
	// else is coming down the pipe, so a read that touched it would hang.
	if got, err := bob.RecvExpect("iblt"); got != nil || err == nil {
		t.Fatalf("poisoned endpoint returned %v, %v", got, err)
	}
	if err := bob.SendFrame("ack", []byte{1}); err == nil {
		t.Fatal("poisoned endpoint wrote a frame")
	}
}

func TestEndpointRandomizedRoundTrips(t *testing.T) {
	alice, bob := endpointPair(t)
	src := prng.New(42)
	labels := []string{"iblt", "cascade-iblts", "hash-iblt+estimators", "forest-meta"}
	const rounds = 50
	errc := make(chan error, 1)
	payloads := make([][]byte, rounds)
	for i := range payloads {
		p := make([]byte, src.Intn(2048))
		for j := range p {
			p[j] = byte(src.Uint64())
		}
		payloads[i] = p
	}
	go func() {
		for i, p := range payloads {
			if err := alice.SendFrame(labels[i%len(labels)], p); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i, p := range payloads {
		got, err := bob.RecvExpect(labels[i%len(labels)])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if alice.Stats() != bob.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", alice.Stats(), bob.Stats())
	}
}
