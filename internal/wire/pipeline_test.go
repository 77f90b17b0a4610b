package wire

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"unsafe"

	"sosr/internal/raceflag"
	"sosr/internal/transport"
)

// Receive-path tests: RecvFrame must take its buffers from the pools, keep
// delivered payloads stable across the documented window, deliver the first
// error in order and keep it, and account the n-th session of a connection
// like the first. (Two tests keep "ReadAhead" in their names from when a
// second, pipelined receive path existed; the suite's floor pins the names.)

func TestReadFrameIntoReusesScratch(t *testing.T) {
	payload := make([]byte, 32<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	frame, err := AppendFrame(nil, "iblt", payload)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(frame)
	var hdr [headerLen]byte
	body := make([]byte, bodyLen(len("iblt"), len(payload)))
	// The header lands in the caller's array and the body in the caller's
	// buffer: reading a frame allocates nothing of its own.
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(frame)
		labelLen, payloadLen, _, err := readHeader(rd, &hdr, 0)
		if err != nil || labelLen != 4 || payloadLen != len(payload) {
			t.Fatalf("header: %d %d %v", labelLen, payloadLen, err)
		}
		if _, err := readBody(rd, &hdr, body, labelLen, payloadLen); err != nil {
			t.Fatalf("body: %v", err)
		}
		if !bytes.Equal(body[labelLen:labelLen+payloadLen], payload) {
			t.Fatal("payload corrupted")
		}
	})
	if allocs > 0 {
		t.Fatalf("readHeader+readBody allocate %.1f/op into caller buffers, want 0", allocs)
	}
}

func TestEndpointRecvReusesRing(t *testing.T) {
	var stream bytes.Buffer
	const frames = 4 * heldFrames
	for i := 0; i < frames; i++ {
		if _, err := WriteFrame(&stream, "iblt", bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	ep := NewEndpoint(readWriter{&stream}, transport.Bob)
	// Once the ring has turned over, every receive takes the buffer an
	// earlier one gave back.
	for i := 0; i < heldFrames+1; i++ {
		if _, _, err := ep.RecvFrame(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(frames-heldFrames-2, func() {
		label, payload, err := ep.RecvFrame()
		if err != nil || label != "iblt" || len(payload) != 512 {
			t.Fatalf("recv: %q %d %v", label, len(payload), err)
		}
	})
	// Only the stats mirror's message list may grow. (The race detector makes
	// sync.Pool shed buffers, so the count means nothing under it.)
	if allocs > 1 && !raceflag.Enabled {
		t.Fatalf("RecvFrame allocates %.1f/op after ring warmup, want ≤1", allocs)
	}
}

// TestWarmEndpointFrameAllocs is the framing budget: on a warm endpoint,
// sending and receiving a 64 KiB frame allocates no payload-sized buffer —
// at most one small object per frame.
func TestWarmEndpointFrameAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds buffers under the race detector")
	}
	var stream bytes.Buffer
	ep := NewEndpoint(readWriter{&stream}, transport.Bob)
	payload := bytes.Repeat([]byte{0x5a}, 64<<10)
	roundTrip := func() {
		if err := ep.SendFrame("cascade-iblts", payload); err != nil {
			t.Fatal(err)
		}
		_, got, err := ep.RecvFrame()
		if err != nil || len(got) != len(payload) {
			t.Fatalf("recv: %d %v", len(got), err)
		}
		ep.EndSession()
	}
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	var m0, m1 runtime.MemStats
	const runs = 50
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / runs
	bytesPer := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("warm 64 KiB send+receive: %.2f allocs, %.0f B per round trip", allocs, bytesPer)
	if allocs > 2 { // two frames per round trip
		t.Fatalf("%.2f allocs per send+receive, budget 1 per frame", allocs)
	}
	if bytesPer > 4096 {
		t.Fatalf("%.0f B allocated per send+receive of a 64 KiB frame: a payload-sized buffer is not pooled", bytesPer)
	}
}

// flowVocabulary is every label sosrnet's flows send, both directions,
// control frames included.
var flowVocabulary = []string{
	"iblt", "charpoly", "estimator", "cascade-iblts", "edge-iblt", "poly-recon",
	"forest-meta", "naive-iblt", "childdiff-estimator", "nested-iblt",
	"hash-iblt+estimators", "hash-iblt", "pair-payloads", "ack", "retry",
	"ctl/hello", "ctl/accept", "ctl/error", "ctl/done", "ctl/retry",
}

// TestRecvLabelsAllocationFree: an endpoint keeps every label it has received,
// so once each label of the flow vocabulary has arrived, a frame carrying any
// of them, in whatever order one connection interleaves the kinds, allocates
// no string: the label returned is the one first received. Ten thousand
// distinct labels from a hostile peer leave the table at its bound and the
// vocabulary in it.
func TestRecvLabelsAllocationFree(t *testing.T) {
	const runs = 50
	var stream bytes.Buffer
	payload := []byte{1, 2, 3}
	// Each round sends the whole vocabulary, stepping through it by a stride
	// coprime to its 20 labels, a different stride each round.
	strides := []int{1, 3, 7, 9, 11, 13, 17, 19}
	order := func(r, i int) string {
		return flowVocabulary[i*strides[r%len(strides)]%len(flowVocabulary)]
	}
	for r := 0; r <= runs+1; r++ {
		for i := range flowVocabulary {
			if _, err := WriteFrame(&stream, order(r, i), payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	ep := NewEndpoint(readWriter{&stream}, transport.Alice)
	first := map[string]*byte{}
	round := 0
	recvRound := func() {
		for i := range flowVocabulary {
			want := order(round, i)
			got, p, err := ep.RecvFrame()
			if err != nil || got != want || !bytes.Equal(p, payload) {
				t.Fatalf("round %d: got %q %v (%v), want %q", round, got, p, err, want)
			}
			if round == 0 {
				first[got] = unsafe.StringData(got)
			} else if unsafe.StringData(got) != first[got] {
				t.Fatalf("round %d: label %q allocated again", round, got)
			}
		}
		ep.EndSession()
		round++
	}
	recvRound()
	allocs := testing.AllocsPerRun(runs, recvRound)
	// The race detector makes sync.Pool shed frame buffers; the labels are
	// still checked one by one above.
	if allocs != 0 && !raceflag.Enabled {
		t.Fatalf("a session receiving the whole vocabulary allocates %.0f objects, want 0", allocs)
	}

	for i := range 10_000 {
		label := fmt.Sprintf("hostile-%d", i)
		if _, err := WriteFrame(&stream, label, payload); err != nil {
			t.Fatal(err)
		}
		if got, _, err := ep.RecvFrame(); err != nil || got != label {
			t.Fatalf("hostile label %d came back as %q (%v)", i, got, err)
		}
		ep.EndSession()
	}
	if ep.nlabels != maxLabels {
		t.Fatalf("the label table holds %d labels after a hostile flood, bound %d", ep.nlabels, maxLabels)
	}
	for _, l := range flowVocabulary {
		if _, err := WriteFrame(&stream, l, payload); err != nil {
			t.Fatal(err)
		}
		if got, _, err := ep.RecvFrame(); err != nil || unsafe.StringData(got) != first[l] {
			t.Fatalf("label %q not kept through a hostile flood (%v)", l, err)
		}
	}
}

// TestEndSessionRestartsAccounting: the second session on a connection
// reports what the first did, and an idle endpoint holds no frame buffer.
func TestEndSessionRestartsAccounting(t *testing.T) {
	alice, bob := endpointPair(t)
	type books struct {
		st      transport.Stats
		in, out int64
	}
	session := func() (b books) {
		served := make(chan struct{})
		defer func() { <-served }()
		go func() {
			defer close(served)
			alice.RecvExpect("ctl/hello")
			alice.SendFrame("iblt", []byte{1, 2, 3})
			alice.RecvExpect("ctl/done")
			alice.EndSession()
		}()
		if err := bob.SendFrame("ctl/hello", []byte("{}")); err != nil {
			t.Fatal(err)
		}
		if _, err := bob.RecvExpect("iblt"); err != nil {
			t.Fatal(err)
		}
		if err := bob.SendFrame("ctl/done", []byte("{}")); err != nil {
			t.Fatal(err)
		}
		b.st = bob.Stats()
		b.in, b.out = bob.WireBytes()
		bob.EndSession()
		return b
	}
	first := session()
	if first.st.Messages != 1 || first.st.TotalBytes != 3 || first.in == 0 || first.out == 0 {
		t.Fatalf("first session accounting: %+v", first)
	}
	for n := 2; n <= 4; n++ {
		if got := session(); got != first {
			t.Fatalf("session %d accounts %+v, the first %+v", n, got, first)
		}
	}
	if in, out := bob.WireBytes(); in != 0 || out != 0 || bob.Stats().Messages != 0 || bob.Stats().Rounds != 0 {
		t.Fatal("EndSession left accounting behind")
	}
	for i, fb := range bob.held {
		if fb != nil {
			t.Fatalf("idle endpoint still holds a frame buffer in ring slot %d", i)
		}
	}
}

// readWriter adapts a buffer to io.ReadWriter for loopback-free tests.
type readWriter struct{ *bytes.Buffer }

func TestReadAheadPayloadStabilityWindow(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	alice := NewEndpoint(ca, transport.Alice)
	bob := NewEndpoint(cb, transport.Bob)
	go func() {
		for i := 0; i < 8; i++ {
			if err := alice.SendFrame("sig", bytes.Repeat([]byte{byte('a' + i)}, 64)); err != nil {
				return
			}
		}
	}()
	// Hold two payloads (the graph/forest pattern) across a third receive:
	// both must stay intact.
	_, first, err := bob.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := bob.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.RecvFrame(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, bytes.Repeat([]byte{'a'}, 64)) || !bytes.Equal(second, bytes.Repeat([]byte{'b'}, 64)) {
		t.Fatal("held payloads were overwritten inside the stability window")
	}
}

func TestReadAheadErrorDeliveredInOrderAndSticks(t *testing.T) {
	good, err := AppendFrame(nil, "iblt", []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff // corrupt the checksum of the second frame
	stream := bytes.NewBuffer(append(append([]byte(nil), good...), bad...))
	ep := NewEndpoint(readWriter{stream}, transport.Bob)
	if _, p, err := ep.RecvFrame(); err != nil || !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("good frame lost ahead of the error: %v %v", p, err)
	}
	if _, _, err := ep.RecvFrame(); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	if ep.Err() == nil {
		t.Fatal("receive error did not stick")
	}
	if _, _, err := ep.RecvFrame(); err == nil {
		t.Fatal("receive after sticky error succeeded")
	}
}
