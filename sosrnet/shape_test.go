package sosrnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/obs"
	"sosr/internal/setutil"
	"sosr/internal/transport"
	"sosr/internal/wire"
)

// recvDone plays a server reading the client's closing report.
func recvDone(ep *wire.Endpoint) (*doneMsg, error) {
	payload, err := ep.RecvExpect(lblDone)
	if err != nil {
		return nil, err
	}
	done := new(doneMsg)
	return done, parseCtl(doneFields, payload, done)
}

// logMessages collects every record's message, for asserting what a session
// did and did not log.
type logMessages struct {
	mu   sync.Mutex
	msgs []string
}

func (l *logMessages) logger() *slog.Logger {
	return slog.New(hookHandler{fn: func(r slog.Record) {
		l.mu.Lock()
		l.msgs = append(l.msgs, r.Message)
		l.mu.Unlock()
	}})
}

func (l *logMessages) count(msg string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, m := range l.msgs {
		if m == msg {
			n++
		}
	}
	return n
}

// TestUndersizedShapeRejected pins the instance-shape entrance checks: every
// encoder sizes its buffers (and the child codecs their count widths) from
// the session's H, so an H or S below the data on either end must be a
// classified rejection. Before the checks, a hello with h below the hosted
// children made the server session panic in the naive encoder and the client
// saw a bare EOF.
func TestUndersizedShapeRejected(t *testing.T) {
	alice, bob := sosPair() // children of up to 8 elements
	var logs logMessages
	srv, addr, _ := startServer(t, func(s *Server) {
		s.Logger = logs.logger()
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
		if err := s.HostSetsOfSets("tiny", [][]uint64{{1, 2}, {3}}); err != nil {
			t.Fatal(err)
		}
	})
	ctx := context.Background()
	rejects := func() uint64 { return srv.metrics().rejects.With(rejectInstance).Value() }

	// Server side: the hello's explicit bounds do not cover the hosted data.
	want := uint64(0)
	for _, cfg := range []sosr.Config{
		{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: 12, MaxChildSize: 5},
		{Seed: 5, Protocol: sosr.ProtocolNaive, KnownDiff: 12, MaxChildSize: 5},
		{Seed: 5, Protocol: sosr.ProtocolNaive, MaxChildSize: 5},
		{Seed: 5, Protocol: sosr.ProtocolNested, KnownDiff: 12, MaxChildSets: len(alice) - 1},
	} {
		_, _, err := Dial(addr).SetsOfSets(ctx, "docs", bob, cfg)
		if !errors.Is(err, ErrServer) || !errors.Is(err, core.ErrInvalidInstance) {
			t.Fatalf("%v h=%d s=%d: got %v, want a server ErrInvalidInstance", cfg.Protocol, cfg.MaxChildSize, cfg.MaxChildSets, err)
		}
		want++
		waitFor(t, "reject counted", func() bool { return rejects() == want })
	}

	// Client side: the hosted data fits the bound, Bob's own does not. The
	// server accepts; the client must refuse before encoding anything.
	_, _, err := Dial(addr).SetsOfSets(ctx, "tiny", bob, sosr.Config{Seed: 5, Protocol: sosr.ProtocolNaive, KnownDiff: 12, MaxChildSize: 5})
	if !errors.Is(err, core.ErrInvalidInstance) || errors.Is(err, ErrServer) {
		t.Fatalf("oversized local replica: got %v, want a local ErrInvalidInstance", err)
	}
	waitFor(t, "client refusal logged", func() bool { return logs.count("session finished") == int(want)+1 })

	if n := logs.count("session panic"); n != 0 {
		t.Fatalf("%d session panics logged", n)
	}
	if n := logs.count("handshake rejected"); n != int(want) {
		t.Fatalf("%d handshake rejections logged, want %d", n, want)
	}
}

// TestHostileAcceptShapeRejected plays a server that answers a well-formed
// hello with an accept whose H is below the client's own children: the client
// must classify it, not index past its encoders.
func TestHostileAcceptShapeRejected(t *testing.T) {
	_, bob := sosPair()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		ep := wire.NewEndpoint(conn, transport.Alice)
		if _, err := ep.RecvExpect(lblHello); err != nil {
			served <- err
			return
		}
		served <- ep.SendFrame(lblAccept, appendCtl(nil, acceptFields, &acceptMsg{
			V: protoVersion, Kind: KindSetsOfSets, Protocol: "naive",
			D: 4, DHat: 4, Replicas: 1, S: len(bob), H: 2,
		}))
	}()
	_, _, err = Dial(ln.Addr().String()).SetsOfSets(context.Background(), "docs", bob,
		sosr.Config{Seed: 5, Protocol: sosr.ProtocolNaive, KnownDiff: 4})
	if !errors.Is(err, core.ErrInvalidInstance) {
		t.Fatalf("got %v, want ErrInvalidInstance", err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestHostileStarFlagRefused plays a server that accepts an honest cascade
// hello at d < h — no T* in the plan both ends derive — and then sends, for
// every attempt of the first session, a payload whose star flag says T*
// follows, with a well-formed star table behind it. The client decodes a
// known-d session through a sketch from the first one on, and the sketch has
// no aggregate for a table the plan does not have: the lie must end as a
// classified error once the attempts are spent (it used to index past the
// sketch and take the process down), and an honest session from the same
// Client must then succeed.
func TestHostileStarFlagRefused(t *testing.T) {
	alice, bob := sosPair()
	const d, replicas = 4, 3 // children hold up to 8 elements: d < h
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// serve plays one session; a lying one answers every attempt with the
	// spliced payload and expects ctl/retry, then the closing done{ok:false}.
	serve := func(lie bool) error {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		defer conn.Close()
		ep := wire.NewEndpoint(conn, transport.Alice)
		payload, err := ep.RecvExpect(lblHello)
		if err != nil {
			return err
		}
		var h helloMsg
		if err := parseCtl(helloFields, payload, &h); err != nil {
			return err
		}
		p, err := core.Params{S: max(len(alice), h.CS), H: max(setutil.MaxChildLen(alice), h.CH)}.Normalized()
		if err != nil {
			return err
		}
		dHat := core.DHat(h.D, p.S)
		if err := ep.SendFrame(lblAccept, appendCtl(nil, acceptFields, &acceptMsg{
			V: protoVersion, Kind: KindSetsOfSets, Protocol: "cascade",
			D: h.D, DHat: dHat, Replicas: replicas, S: p.S, H: p.H, U: p.U,
		})); err != nil {
			return err
		}
		for k := 0; k < replicas; k++ {
			coins := hashing.NewCoins(h.Seed).Sub("replica", k)
			msg, err := core.AliceMsg(core.DigestCascade, coins, alice, p, h.D, dHat)
			if err != nil {
				return err
			}
			if lie {
				// T* as a d ≥ h plan lays it out: Alice's children as
				// list keys, behind flag 1, before the parent hash.
				star := iblt.New(iblt.CellsFor(4), 4+8*p.H, 0, coins.Seed("cascade/star", 0))
				key := make([]byte, star.Width())
				for _, cs := range alice {
					clear(key)
					binary.LittleEndian.PutUint32(key, uint32(len(cs)))
					for i, x := range cs {
						binary.LittleEndian.PutUint64(key[4+8*i:], x)
					}
					star.Insert(key)
				}
				hash := msg[len(msg)-8:]
				lying := append(bytes.Clone(msg[:len(msg)-9]), 1)
				lying = binary.LittleEndian.AppendUint32(lying, uint32(star.SerializedSize()))
				msg = append(star.AppendMarshal(lying), hash...)
			}
			if err := ep.SendFrame("cascade-iblts", msg); err != nil {
				return err
			}
			label, _, err := ep.RecvFrame()
			switch {
			case err != nil:
				return err
			case !lie && label == lblDone:
				return nil
			case lie && label == lblRetry && k+1 < replicas, lie && label == lblDone && k+1 == replicas:
			default:
				return fmt.Errorf("attempt %d: client answered %q", k, label)
			}
		}
		return nil
	}
	served := make(chan error, 1)
	go func() {
		err := serve(true)
		if err == nil {
			err = serve(false)
		}
		served <- err
	}()

	c := Dial(ln.Addr().String())
	defer c.Close()
	c.Timeout = 10 * time.Second
	cfg := sosr.Config{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: d}
	res, _, err := c.SetsOfSets(context.Background(), "docs", bob, cfg)
	if !errors.Is(err, ErrGaveUp) || !strings.Contains(err.Error(), "star flag") || res != nil {
		t.Fatalf("lying server: result %v, err %v; want ErrGaveUp naming the star flag", res != nil, err)
	}
	// d = 4 is far below the pair's true difference: the honest session runs
	// at a bound that covers it.
	cfg.KnownDiff = 24
	res, _, err = c.SetsOfSets(context.Background(), "docs", bob, cfg)
	if err != nil || !setutil.EqualSetOfSets(res.Recovered, setutil.CanonicalSets(alice)) {
		t.Fatalf("honest session after the lying one: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestHostilePolyFrameRefused plays a server that answers a polynomial graph
// hello with a poly-recon frame no honest server sends. Bob derives the
// modulus from his own (n, d): a frame whose q is zero (which used to divide
// by zero in the client), another prime, or whose r or value is not below q
// ends the session with graphrecon.ErrBadPolyMsg, and the server is told.
func TestHostilePolyFrameRefused(t *testing.T) {
	bob := sosr.RandomGraph(6, 0.5, 7)
	const d = 2
	_, q, err := graphrecon.PolyShape(bob.N, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		q, r, v uint64
	}{
		{"q=0", 0, 1, 1},
		{"another prime", graphrecon.NextPrime(q + 1), 1, 1},
		{"r=q", q, q, 1},
		{"r=2^64-1", q, ^uint64(0), 1},
		{"value=q", q, 1, q},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan *doneMsg, 1)
		go func() {
			defer close(served)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			ep := wire.NewEndpoint(conn, transport.Alice)
			payload, err := ep.RecvExpect(lblHello)
			var h helloMsg
			if err != nil || parseCtl(helloFields, payload, &h) != nil {
				return
			}
			frame := binary.LittleEndian.AppendUint64(nil, tc.q)
			frame = binary.LittleEndian.AppendUint64(frame, tc.r)
			frame = binary.LittleEndian.AppendUint64(frame, tc.v)
			if ep.SendFrame(lblAccept, appendCtl(nil, acceptFields, &acceptMsg{V: protoVersion, Kind: KindGraph, D: h.D})) != nil ||
				ep.SendFrame("poly-recon", frame) != nil {
				return
			}
			if done, err := recvDone(ep); err == nil {
				served <- done
			}
		}()
		c := Dial(ln.Addr().String())
		c.Timeout = 5 * time.Second
		res, _, err := c.Graph(context.Background(), "tiny", bob, sosr.GraphConfig{Seed: 1, Scheme: sosr.SchemePolynomial, MaxEdits: d})
		c.Close()
		done := <-served
		ln.Close()
		if !errors.Is(err, graphrecon.ErrBadPolyMsg) || res != nil {
			t.Errorf("%s: result %v, err %v; want graphrecon.ErrBadPolyMsg", tc.name, res != nil, err)
		}
		if done == nil || done.OK || done.Error == "" {
			t.Errorf("%s: the server was told %+v, want a done{ok:false} naming the refusal", tc.name, done)
		}
	}
}

// TestHostileAcceptRefused plays a server that answers a well-formed hello of
// every kind with an accept no honest server sends: another version or kind,
// a parameter the hello pinned come back changed, or a resolved size beyond
// the bound a default server holds a client to. The client sizes Bob's
// sketches, signature tables and plans from the accept, so it must refuse
// before allocating anything — classified as ErrUnsupported, and told to the
// server with a done{ok:false} — as the server does for a hostile hello.
// Before the check, dhat = 2^21 made a two-child reconcile allocate 384 MB and
// fail as "short naive message".
func TestHostileAcceptRefused(t *testing.T) {
	ctx := context.Background()
	bobSet := seqSet(0, 50)
	bobSOS := [][]uint64{{1, 2, 3}, {7, 8}}
	bobGraph := sosr.RandomGraph(40, 0.3, 5)
	bobForest := sosr.RandomForest(40, 0.2, 5)
	sets := func(c *Client) error {
		_, _, err := c.Sets(ctx, "x", bobSet, sosr.SetConfig{Seed: 1, KnownDiff: 16})
		return err
	}
	multiset := func(c *Client) error {
		_, _, err := c.Multiset(ctx, "x", bobSet, 16, 1)
		return err
	}
	sos := func(c *Client) error {
		_, _, err := c.SetsOfSets(ctx, "x", bobSOS, sosr.Config{Seed: 1, Protocol: sosr.ProtocolNaive, KnownDiff: 1, MaxChildSize: 8})
		return err
	}
	graph := func(c *Client) error {
		_, _, err := c.Graph(ctx, "x", bobGraph, sosr.GraphConfig{Seed: 1, Scheme: sosr.SchemeDegreeNeighborhood, MaxEdits: 1, DegreeThreshold: 30})
		return err
	}
	forest := func(c *Client) error {
		_, _, err := c.Forest(ctx, "x", bobForest, sosr.ForestConfig{Seed: 1})
		return err
	}
	for _, tc := range []struct {
		name string
		acc  acceptMsg
		run  func(c *Client) error
	}{
		{"set: another version", acceptMsg{V: protoVersion + 1, Kind: KindSet, D: 16}, sets},
		{"set: pinned d changed", acceptMsg{V: protoVersion, Kind: KindSet, D: 1 << 19}, sets},
		{"multiset: another kind", acceptMsg{V: protoVersion, Kind: KindSet, D: 16}, multiset},
		{"sos: dhat beyond the bound", acceptMsg{V: protoVersion, Kind: KindSetsOfSets, Protocol: "naive", D: 1, DHat: 1 << 21, Replicas: 1, S: 2, H: 8}, sos},
		{"sos: s beyond the bound", acceptMsg{V: protoVersion, Kind: KindSetsOfSets, Protocol: "naive", D: 1, DHat: 1, Replicas: 1, S: 1 << 28, H: 8}, sos},
		{"sos: pinned h changed", acceptMsg{V: protoVersion, Kind: KindSetsOfSets, Protocol: "naive", D: 1, DHat: 1, Replicas: 1, S: 2, H: 1 << 12}, sos},
		{"sos: replicas beyond the cap", acceptMsg{V: protoVersion, Kind: KindSetsOfSets, Protocol: "naive", D: 1, DHat: 1, Replicas: 1 << 16, S: 2, H: 8}, sos},
		{"graph: maxsig beyond the bound", acceptMsg{V: protoVersion, Kind: KindGraph, D: 1, MaxSig: 1 << 28}, graph},
		{"forest: n beyond the bound", acceptMsg{V: protoVersion, Kind: KindForest, N: 1 << 28, Depth: 4, MaxChild: 4, MaxBudget: 64}, forest},
		{"forest: negative budget cap", acceptMsg{V: protoVersion, Kind: KindForest, N: 40, Depth: 4, MaxChild: 4, MaxBudget: -1}, forest},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan *doneMsg, 1)
		go func() {
			defer close(served)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			ep := wire.NewEndpoint(conn, transport.Alice)
			if _, err := ep.RecvExpect(lblHello); err != nil {
				return
			}
			if ep.SendFrame(lblAccept, appendCtl(nil, acceptFields, &tc.acc)) != nil {
				return
			}
			if done, err := recvDone(ep); err == nil {
				served <- done
			}
		}()
		c := Dial(ln.Addr().String())
		c.Timeout = 5 * time.Second // an accept taken at its word waits for a payload that never comes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = tc.run(c)
		runtime.ReadMemStats(&after)
		c.Close()
		done := <-served
		ln.Close()
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: got %v, want ErrUnsupported", tc.name, err)
		}
		if done == nil || done.OK || done.Error == "" {
			t.Errorf("%s: the server was told %+v, want a done{ok:false} naming the refusal", tc.name, done)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: the session allocated %d bytes on the accept's word", tc.name, grew)
		}
	}
}

// TestPreviousProtocolVersionRefused: a peer of the previous revision builds
// payloads this one cannot decode (v2's child keys carried per-key headers,
// v3's signature collections twice the budget in h); it must be told so at
// the handshake rather than discover it as a decode failure. The hello here
// is binary; TestV3PeersAreVersionRejects sends v3's own JSON.
func TestPreviousProtocolVersionRefused(t *testing.T) {
	alice, _ := sosPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ep := wire.NewEndpoint(conn, transport.Bob)
	hello := helloMsg{V: protoVersion - 1, Dataset: "docs", Kind: KindSetsOfSets, Seed: 1, Protocol: "cascade", D: 8}
	if err := ep.SendFrame(lblHello, appendCtl(nil, helloFields, &hello)); err != nil {
		t.Fatal(err)
	}
	_, err = recvOrServerError(ep, lblAccept)
	if !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "protocol version 3 unsupported (want 4)") {
		t.Fatalf("got %v, want the version refusal", err)
	}
}

// TestV3PeersAreVersionRejects: the control frames were JSON up to v3, so a v3
// peer's bytes do not parse at all here. Each end must still see the skew for
// what it is. A v3 client's hello (its own bytes, written out by hand) counts
// as a version reject with both versions in the log line, not as a malformed
// hello; and a client whose hello a v3 server could not read — that server's
// answer is a JSON error frame — returns an error that says so.
func TestV3PeersAreVersionRejects(t *testing.T) {
	const v3Hello = `{"v":3,"dataset":"docs","kind":"sos","seed":1,"d":8,"protocol":"cascade"}`
	const v3Error = `{"error":"malformed hello: invalid character '\\x01' looking for beginning of value"}`

	t.Run("v3 client", func(t *testing.T) {
		alice, _ := sosPair()
		var mu sync.Mutex
		var rejected []string
		srv, addr, _ := startServer(t, func(s *Server) {
			s.Logger = slog.New(hookHandler{fn: func(r slog.Record) {
				if r.Message != "handshake rejected" {
					return
				}
				r.Attrs(func(a slog.Attr) bool {
					if a.Key == "err" {
						mu.Lock()
						rejected = append(rejected, a.Value.String())
						mu.Unlock()
					}
					return true
				})
			}})
			if err := s.HostSetsOfSets("docs", alice); err != nil {
				t.Fatal(err)
			}
		})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		ep := wire.NewEndpoint(conn, transport.Bob)
		if err := ep.SendFrame(lblHello, []byte(v3Hello)); err != nil {
			t.Fatal(err)
		}
		if _, err := recvOrServerError(ep, lblAccept); !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "protocol version 3 unsupported (want 4)") {
			t.Fatalf("got %v, want the version refusal", err)
		}
		rejects := srv.metrics().rejects
		// reject counts before it logs: wait for the log line too.
		waitFor(t, "version reject counted and logged", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return rejects.With(rejectVersion).Value() == 1 && len(rejected) > 0
		})
		if n := rejects.With(rejectMalformed).Value(); n != 0 {
			t.Fatalf("%d malformed rejects counted for a v3 hello", n)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(rejected) != 1 || !strings.Contains(rejected[0], "version 3") || !strings.Contains(rejected[0], "want 4") {
			t.Fatalf("reject log lines %q, want one naming versions 3 and 4", rejected)
		}
	})

	t.Run("v3 server", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			ep := wire.NewEndpoint(conn, transport.Alice)
			if _, err := ep.RecvExpect(lblHello); err == nil {
				_ = ep.SendFrame(lblError, []byte(v3Error))
			}
		}()
		_, _, err = Dial(ln.Addr().String()).Sets(context.Background(), "ids", seqSet(0, 50), sosr.SetConfig{Seed: 1, KnownDiff: 8})
		if !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "protocol version") || strings.Contains(err.Error(), "unreadable") {
			t.Fatalf("got %v, want an error naming the protocol version skew", err)
		}
	})
}

// TestEveryHelloFieldHasASetter: a field of the hello that no Client method
// assigns has one value in use, zero, and is an option nobody can set — or,
// worse, one only a peer built some other way could set, with the two ends
// then planning from different numbers. A fake server records the hello of
// every kind of session a sharded, traced Client can open and refuses it; the
// fields that were non-zero in at least one of them must be all of helloFields.
func TestEveryHelloFieldHasASetter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var hellos [][]byte
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			ep := wire.NewEndpoint(conn, transport.Alice)
			if hello, err := ep.RecvExpect(lblHello); err == nil {
				mu.Lock()
				hellos = append(hellos, bytes.Clone(hello))
				mu.Unlock()
				sendErrorFrame(ep, errors.New("recorded"))
			}
			conn.Close()
		}
	}()

	c := Dial(ln.Addr().String())
	c.Timeout = 10 * time.Second
	c.ShardID, c.ShardCount, c.ShardEpoch, c.ShardFingerprint = 0xfeed, 3, 7, 0xbeef
	c.Trace = &obs.Tracer{SampleRate: 1}
	ctx := context.Background()
	set, sos := seqSet(0, 50), [][]uint64{{1, 2, 3}, {7, 8}}
	g, f := sosr.RandomGraph(40, 0.3, 5), sosr.RandomForest(40, 0.2, 5)
	var errs []error
	note := func(err error) { errs = append(errs, err) }
	for _, cfg := range []sosr.SetConfig{{Seed: 1, KnownDiff: 16}, {Seed: 1, KnownDiff: 16, UseCharPoly: true}, {Seed: 1}} {
		_, _, err := c.Sets(ctx, "x", set, cfg)
		note(err)
	}
	_, _, err = c.Multiset(ctx, "x", set, 16, 1)
	note(err)
	for _, p := range []sosr.Protocol{sosr.ProtocolNaive, sosr.ProtocolNested, sosr.ProtocolCascade, sosr.ProtocolMultiRound} {
		_, _, err := c.SetsOfSets(ctx, "x", sos, sosr.Config{
			Seed: 1, MaxChildSets: 4, MaxChildSize: 8, Universe: 1 << 20, Protocol: p,
			KnownDiff: 2, KnownChildDiff: 2, Replicas: 2, Validate: true,
		})
		note(err)
	}
	for _, cfg := range []sosr.GraphConfig{
		{Seed: 1, Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 1, TopDegrees: 6},
		{Seed: 1, Scheme: sosr.SchemeDegreeNeighborhood, MaxEdits: 1, DegreeThreshold: 30},
	} {
		_, _, err := c.Graph(ctx, "x", g, cfg)
		note(err)
	}
	for _, cfg := range []sosr.ForestConfig{{Seed: 1, MaxEdits: 2, Depth: 5}, {Seed: 1}} {
		_, _, err := c.Forest(ctx, "x", f, cfg)
		note(err)
	}
	c.Close()
	ln.Close()
	<-served
	for i, err := range errs {
		if !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "recorded") {
			t.Fatalf("session %d: got %v, want the fake server's refusal", i, err)
		}
	}
	if len(hellos) != len(errs) {
		t.Fatalf("%d hellos recorded for %d sessions", len(hellos), len(errs))
	}

	isSet := func(p any) bool {
		switch p := p.(type) {
		case *int:
			return *p != 0
		case *uint64:
			return *p != 0
		case *bool:
			return *p
		}
		return *p.(*string) != ""
	}
	nonZero := make(map[string]bool)
	for _, raw := range hellos {
		var h helloMsg
		if err := parseCtl(helloFields, raw, &h); err != nil {
			t.Fatalf("a Client's own hello does not parse: %v", err)
		}
		for i := range helloFields {
			fld := &helloFields[i]
			nonZero[fld.name] = nonZero[fld.name] || isSet(fld.at(&h))
		}
	}
	for i := range helloFields {
		if name := helloFields[i].name; !nonZero[name] {
			t.Errorf("hello field %s (tag %d) was zero in every session a Client can open: nothing sets it", name, helloFields[i].tag)
		}
	}
	if len(helloFields) != 29 {
		t.Errorf("helloFields has %d rows, want the 29 of protocol version 4", len(helloFields))
	}
}

// TestRetiredHelloTagsAreMalformed: tags 26, 29 and 30 were hello fields no
// client ever set (sigbudget, budget, maxbudget); a hello that carries one is
// now refused whole, as any unknown tag is — counted as a malformed reject — and
// the server goes on serving honest sessions.
func TestRetiredHelloTagsAreMalformed(t *testing.T) {
	alice, bob := setPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	rejects := srv.metrics().rejects.With(rejectMalformed)
	for i, tag := range []byte{26, 29, 30} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		ep := wire.NewEndpoint(conn, transport.Bob)
		// An honest set hello's fields end at tag 11 (d): the retired tag
		// behind them is in ascending order, as the parser demands.
		hello := appendCtl(nil, helloFields, &helloMsg{V: protoVersion, Kind: KindSet, Dataset: "ids", Seed: 1, D: 16})
		if err := ep.SendFrame(lblHello, append(hello, tag, 5)); err != nil {
			t.Fatal(err)
		}
		_, err = recvOrServerError(ep, lblAccept)
		conn.Close()
		if !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "malformed hello") || !strings.Contains(err.Error(), fmt.Sprintf("tag %d", tag)) {
			t.Fatalf("tag %d: got %v, want a malformed-hello refusal naming the tag", tag, err)
		}
		waitFor(t, "malformed reject counted", func() bool { return rejects.Value() == uint64(i+1) })
		res, _, err := Dial(addr).Sets(context.Background(), "ids", bob, sosr.SetConfig{Seed: 1, KnownDiff: 16})
		if err != nil || !setutil.Equal(res.Recovered, setutil.Canonical(alice)) {
			t.Fatalf("honest session after the tag-%d hello: %v", tag, err)
		}
	}
}

// TestMalformedGraphRefusedEveryWayIn: a graph from outside the program — an
// edge past the vertex range, a negative vertex, a negative vertex count — is
// the same error (graph.FromEdges) through the in-process API, Server.HostGraph
// and Client.Graph, before anything is indexed or dialed.
func TestMalformedGraphRefusedEveryWayIn(t *testing.T) {
	good := sosr.Graph{N: 2, Edges: [][2]int{{0, 1}}}
	cfg := sosr.GraphConfig{Seed: 1, Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 1, TopDegrees: 1}
	c := Dial("unused")
	c.dial = func(context.Context, string) (net.Conn, error) {
		t.Error("a malformed graph reached the network")
		return nil, errors.New("no network in this test")
	}
	for _, row := range []struct {
		bad  sosr.Graph
		want string
	}{
		{sosr.Graph{N: 2, Edges: [][2]int{{0, 5}}}, "edge (0,5) outside 2 vertices"},
		{sosr.Graph{N: 3, Edges: [][2]int{{0, 1}, {-1, 2}}}, "edge (-1,2) outside 3 vertices"},
		{sosr.Graph{N: -1}, "-1 vertices"},
	} {
		_, errAlice := sosr.ReconcileGraphs(row.bad, good, cfg)
		_, errBob := sosr.ReconcileGraphs(good, row.bad, cfg)
		_, _, errIso := sosr.GraphsIsomorphic(row.bad, good, 1)
		errHost := NewServer().HostGraph("g", row.bad)
		_, _, errClient := c.Graph(context.Background(), "g", row.bad, cfg)
		for way, err := range map[string]error{
			"ReconcileGraphs (alice)": errAlice, "ReconcileGraphs (bob)": errBob, "GraphsIsomorphic": errIso,
			"Server.HostGraph": errHost, "Client.Graph": errClient,
		} {
			if err == nil || !strings.Contains(err.Error(), row.want) {
				t.Errorf("%+v through %s: %v, want an error naming %q", row.bad, way, err, row.want)
			}
		}
	}
}
