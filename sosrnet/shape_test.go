package sosrnet

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/transport"
	"sosr/internal/wire"
)

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
		served <- ep.SendFrame(lblAccept, marshalCtl(&acceptMsg{
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

// TestPreviousProtocolVersionRefused: v2 peers build child keys with per-key
// headers, so their payloads cannot be decoded; they must be told so at the
// handshake rather than discover it as a decode failure.
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
	if err := ep.SendFrame(lblHello, marshalCtl(&hello)); err != nil {
		t.Fatal(err)
	}
	_, err = recvOrServerError(ep, lblAccept)
	if !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "protocol version 2 unsupported (want 3)") {
		t.Fatalf("got %v, want the version refusal", err)
	}
}
