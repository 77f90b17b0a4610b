package sosrnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"net"
	"reflect"
	"slices"
	"testing"

	"sosr"
	"sosr/internal/wire"
	"sosr/internal/workload"
)

// The control frames of the canonical hot session — the shape of the
// benchmark's hot_sos_tcp op: a cascade reconcile of PlantedSetsOfSets(17,
// 200, 10, 1<<32, 16) at KnownDiff 32 — and their bytes on the wire. The payload
// goldens (golden_payload_test.go at the module root) pin what Alice sends
// between the accept and the done; these pin the three frames around it. A
// change to any of them is a change of protoVersion.
var (
	goldenHello = helloMsg{
		V: protoVersion, Kind: KindSetsOfSets, Dataset: "docs", Seed: 7,
		D: 32, Protocol: "cascade", CS: 200, CH: 10, CU: 1 << 32,
	}
	goldenAccept = acceptMsg{
		V: protoVersion, Kind: KindSetsOfSets, D: 32, Protocol: "cascade",
		DHat: 32, Replicas: 3, S: 200, H: 10, U: 1 << 32,
	}
	goldenDone = doneMsg{OK: true, Rounds: 1, Bytes: 7008, Messages: 1, Attempts: 1}
)

const (
	goldenHelloHex  = "010a02030304646f637304070b200d0313c801140a158080808010"
	goldenAcceptHex = "010a0203032004030520060307c801080a098080808010"
	goldenDoneHex   = "0101030104e03605010601"
)

// The frames of a known-d forest session — the benchmark's cold_kinds_tcp
// forest op: RandomForest(600, 0.2, 51) hosted, PerturbForest(·, 3, 52)
// reconciled at MaxEdits 3 and Depth 16 under seed 53 — pinned like the hot
// session's, with the label of every frame each way. The hello selects the
// flow row, which no payload golden sees; the done's counts and the labels do.
var (
	goldenForestHello = helloMsg{
		V: protoVersion, Kind: KindForest, Dataset: "forest", Seed: 53,
		D: 3, Sigma: 16, N: 600, Depth: 12, MaxChild: 9,
	}
	goldenForestAccept = acceptMsg{
		V: protoVersion, Kind: KindForest, D: 3, N: 600, Depth: 12, MaxChild: 9, MaxBudget: 1 << 20,
	}
	goldenForestDone = doneMsg{OK: true, Rounds: 2, Bytes: 6021, Messages: 3, Attempts: 1}
	// Bob's frames, then Alice's.
	goldenForestLabels = [2][]string{{lblHello, "ack", lblDone}, {lblAccept, "cascade-iblts", "forest-meta"}}
)

const (
	goldenForestHelloHex  = "010a02050306666f7265737404350b031ad8041c101d0c1e09"
	goldenForestAcceptHex = "010a020503030bd8040c0c0d090e808040"
	goldenForestDoneHex   = "0101030204852f05030601"
)

// golden holds one message to its pinned bytes, both ways.
func golden[M comparable](t *testing.T, name, wantHex string, fields []ctlField[M], msg *M) {
	t.Helper()
	if h := hex.EncodeToString(appendCtl(nil, fields, msg)); h != wantHex {
		t.Errorf("%s encodes as\n  %s, golden\n  %s", name, h, wantHex)
	}
	var back M
	if b, _ := hex.DecodeString(wantHex); parseCtl(fields, b, &back) != nil || back != *msg {
		t.Errorf("the %s golden parses to %+v", name, back)
	}
}

func TestCtlGoldens(t *testing.T) {
	golden(t, "hello", goldenHelloHex, helloFields, &goldenHello)
	golden(t, "accept", goldenAcceptHex, acceptFields, &goldenAccept)
	golden(t, "done", goldenDoneHex, doneFields, &goldenDone)
	// The goldens are a real session's frames: one run of it moves exactly
	// their bytes, the payload's and the payload's framing.
	alice, bob := workload.PlantedSetsOfSets(17, 200, 10, 1<<32, 16)
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	defer c.Close()
	_, ns, err := c.SetsOfSets(context.Background(), "docs", bob, sosr.Config{Seed: 7, Protocol: sosr.ProtocolCascade, KnownDiff: 32})
	if err != nil {
		t.Fatal(err)
	}
	frames := wire.FrameSize(lblHello, len(goldenHelloHex)/2) + wire.FrameSize(lblAccept, len(goldenAcceptHex)/2) +
		wire.FrameSize(lblDone, len(goldenDoneHex)/2) + wire.Overhead("cascade-iblts")
	if ns.Protocol.TotalBytes != goldenDone.Bytes || ns.Overhead != int64(frames) {
		t.Errorf("the session moved %d payload and %d other bytes, the goldens say %d and %d", ns.Protocol.TotalBytes, ns.Overhead, goldenDone.Bytes, frames)
	}
}

// TestForestGoldens runs the pinned forest session and holds it to its frames:
// the control messages' bytes and every frame's label in order each way.
// TestEndToEndWireBytes' forest/bound row itemises a bounded session's framing.
func TestForestGoldens(t *testing.T) {
	golden(t, "forest hello", goldenForestHelloHex, helloFields, &goldenForestHello)
	golden(t, "forest accept", goldenForestAcceptHex, acceptFields, &goldenForestAccept)
	golden(t, "forest done", goldenForestDoneHex, doneFields, &goldenForestDone)
	alice := sosr.RandomForest(600, 0.2, 51)
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostForest("forest", alice); err != nil {
			t.Fatal(err)
		}
	})
	c := Dial(addr)
	defer c.Close()
	var conn *recordConn
	c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		nc, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		conn = &recordConn{Conn: nc}
		return conn, err
	}
	_, _, err := c.Forest(context.Background(), "forest", sosr.PerturbForest(alice, 3, 52), sosr.ForestConfig{Seed: 53, MaxEdits: 3, Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range [2][]byte{conn.out.Bytes(), conn.in.Bytes()} {
		var labels []string
		for r := bytes.NewReader(b); r.Len() > 0; {
			label, _, _, err := wire.ReadFrame(r, 1<<24)
			if err != nil {
				t.Fatal(err)
			}
			labels = append(labels, label)
		}
		if !slices.Equal(labels, goldenForestLabels[i]) {
			t.Errorf("%s sent %q, golden %q", [2]string{"Bob", "Alice"}[i], labels, goldenForestLabels[i])
		}
	}
}

// recordConn keeps a copy of every byte a connection reads and writes.
type recordConn struct {
	net.Conn
	in, out bytes.Buffer
}

func (c *recordConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

// sizingInts calls f for every int field of message v but the version: the
// numbers a peer sets that something is sized from.
func sizingInts(v reflect.Value, f func(name string, field reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; v.Field(i).Kind() == reflect.Int && name != "V" {
			f(name, v.Field(i))
		}
	}
}

// checkTable: tags run 1, 2, 3, … without gaps, so a parser that walks the
// table once sees every legal message, and the table names every field of its
// message.
func checkTable[M any](t *testing.T, name string, fields []ctlField[M]) {
	t.Helper()
	for i := range fields {
		if want := byte(i + 1); fields[i].tag != want {
			t.Errorf("%s: field %d carries tag %d, want %d", name, i, fields[i].tag, want)
		}
	}
	var m M
	if n := reflect.TypeOf(m).NumField(); n != len(fields) {
		t.Errorf("%s has %d fields, its table %d", name, n, len(fields))
	}
}

// TestCtlFieldTables: the tables are what the codec's one-encoding promise
// rests on, and every int a peer can set, the version apart, is bounded
// before anything is sized from it: set each out of range in turn and the
// entrance check must refuse the message.
func TestCtlFieldTables(t *testing.T) {
	checkTable(t, "hello", helloFields)
	checkTable(t, "accept", acceptFields)
	checkTable(t, "done", doneFields)
	checkTable(t, "error", errorFields)
	refuses := func(name string, msg reflect.Value, check func() error) {
		sizingInts(msg, func(field string, f reflect.Value) {
			for _, bad := range []int64{-1, DefaultMaxBound + 1} {
				f.SetInt(bad)
				if check() == nil {
					t.Errorf("%s with %s = %d passes its entrance check", name, field, bad)
				}
			}
			f.SetInt(0)
		})
	}
	h := &helloMsg{V: protoVersion, Kind: KindSet}
	refuses("a hello", reflect.ValueOf(h).Elem(), func() error { return checkHello(h, DefaultMaxBound) })
	acc := &acceptMsg{V: protoVersion, Kind: KindSet}
	refuses("an accept", reflect.ValueOf(acc).Elem(), func() error { return checkAccept(&helloMsg{Kind: KindSet}, acc) })
}

// fillCtl builds a message of any content from fuzz input: the input is read
// as a run of uvarints, one per field in table order (a run that ends early
// leaves the rest zero), a number taking the value, a flag its low bit, an
// enumerated name the value modulo its table, and free text as many of the
// bytes that follow as the value says and the input has.
func fillCtl[M any](fields []ctlField[M], m *M, b []byte) {
	for i := range fields {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return
		}
		b = b[n:]
		f := &fields[i]
		switch p := f.at(m).(type) {
		case *int:
			*p = int(v)
		case *uint64:
			*p = v
		case *bool:
			*p = v&1 == 1
		case *string:
			if f.enum != nil {
				if k := int(v % uint64(len(f.enum)+1)); k > 0 {
					*p = f.enum[k-1]
				}
			} else {
				k := min(int(v%64), len(b))
				*p, b = string(b[:k]), b[k:]
			}
		}
	}
}

// fuzzCtl holds one message type to the codec's promises on input b, read
// once as wire bytes and once as the content of a message.
func fuzzCtl[M comparable](t *testing.T, fields []ctlField[M], b []byte) {
	// As wire bytes: whatever parses has exactly one spelling, the one it
	// arrived in, and its text was carved out of the payload.
	var m M
	if err := parseCtl(fields, b, &m); err == nil {
		if again := appendCtl(nil, fields, &m); !bytes.Equal(again, b) {
			t.Fatalf("%x parses to %+v, which encodes as %x", b, m, again)
		}
		text := 0
		for i := range fields {
			if s, ok := fields[i].at(&m).(*string); ok && fields[i].enum == nil {
				text += len(*s)
			}
		}
		if text > len(b) {
			t.Fatalf("%d bytes of text out of a %d-byte payload", text, len(b))
		}
	}
	// As a message: encoding and parsing returns it, whatever a record parsed
	// into held before.
	var sent M
	fillCtl(fields, &sent, b)
	got := m
	if err := parseCtl(fields, appendCtl(nil, fields, &sent), &got); err != nil || got != sent {
		t.Fatalf("%+v came back as %+v (%v)", sent, got, err)
	}
}

// FuzzCtlCodec: the control-frame parser reads a peer's bytes ahead of every
// other check, so it must hold on any input — never panic, never accept two
// spellings of one message, never hand the entrance checks a number they then
// let through out of range.
func FuzzCtlCodec(f *testing.F) {
	f.Add(appendCtl(nil, helloFields, &goldenHello))
	f.Add(appendCtl(nil, acceptFields, &goldenAccept))
	f.Add(appendCtl(nil, doneFields, &goldenDone))
	f.Add(appendCtl(nil, doneFields, &doneMsg{Error: "sosrnet: exhausted retry attempts", Attempts: 3}))
	f.Add(appendCtl(nil, errorFields, &errorMsg{Error: "sosrnet: server busy", Code: "busy"}))
	f.Add(appendCtl(nil, helloFields, &helloMsg{
		V: protoVersion, Kind: KindSetsOfSets, Dataset: "docs", Seed: 3, D: 6, Protocol: "naive",
		S: 40, H: 9, CS: 38, CH: 7, CU: 1 << 16, Validate: true,
	}))
	f.Add(appendCtl(nil, helloFields, &helloMsg{
		V: protoVersion, Kind: KindGraph, Dataset: "net", Seed: 1<<64 - 1, ShardID: 9, ShardCount: 3, ShardSet: 5, ShardEpoch: 7,
		TraceID: 1 << 63, SpanID: 3, D: 2, Scheme: "neighborhood", M: 96, N: 128, MaxSig: 77, CharPoly: true, Validate: true,
	}))
	f.Add([]byte(`{"v":3,"dataset":"docs","kind":"sos"}`))
	f.Add([]byte{1, 4, 2, 0})           // an explicit zero
	f.Add([]byte{1, 0x84, 0})           // a varint longer than it need be
	f.Add([]byte{2, 3, 1, 4})           // tags out of order
	f.Add([]byte{1, 4, 3, 200, 1, 'x'}) // more text announced than sent
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzCtl(t, helloFields, b)
		fuzzCtl(t, acceptFields, b)
		fuzzCtl(t, doneFields, b)
		fuzzCtl(t, errorFields, b)
		// What the entrance checks let through is in range, field by field.
		inRange := func(name string, v reflect.Value) {
			sizingInts(v, func(field string, f reflect.Value) {
				if f.Int() < 0 || f.Int() > DefaultMaxBound {
					t.Fatalf("a checked %s holds %s = %d", name, field, f.Int())
				}
			})
		}
		var h helloMsg
		if parseCtl(helloFields, b, &h) == nil && checkHello(&h, DefaultMaxBound) == nil {
			inRange("hello", reflect.ValueOf(h))
		}
		var a acceptMsg
		if parseCtl(acceptFields, b, &a) == nil && checkAccept(&helloMsg{Kind: a.Kind}, &a) == nil {
			inRange("accept", reflect.ValueOf(a))
		}
	})
}
