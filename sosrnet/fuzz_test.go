package sosrnet

import (
	"io"
	"log/slog"
	"net"
	"testing"
	"time"

	"sosr"
	"sosr/internal/wire"
)

// FuzzHandshake throws raw bytes at the server's connection handler: whatever
// arrives instead of a hello — torn frames, wrong labels, fields the codec
// refuses, a v3 peer's JSON, absurd shard coordinates or shapes — or after a
// served session, where the handler waits for the next hello of the same
// connection, it must reject or finish and return, never panic and never hang
// past its deadlines. Datasets of every kind are hosted so a structurally
// valid hello exercises each serving path's parameter validation too.
func FuzzHandshake(f *testing.F) {
	srv := NewServer()
	srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv.SessionTimeout = 2 * time.Second
	srv.HelloTimeout = time.Second
	srv.MaxConcurrentSessions = 64
	if err := srv.HostSets("ids", []uint64{1, 2, 3, 4, 5}); err != nil {
		f.Fatal(err)
	}
	if err := srv.HostMultiset("bag", []uint64{1, 1, 2, 3}); err != nil {
		f.Fatal(err)
	}
	if err := srv.HostSetsOfSets("docs", [][]uint64{{1, 2}, {3, 4, 5}}); err != nil {
		f.Fatal(err)
	}
	g, _, err := sosr.PlantedSeparatedGraph(600, 2, 0.4, 11)
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.HostGraph("net", g); err != nil {
		f.Fatal(err)
	}
	if err := srv.HostForest("tree", sosr.RandomForest(32, 0.2, 5)); err != nil {
		f.Fatal(err)
	}

	// Seed corpus: one well-formed hello per kind (the fuzzer mutates from
	// real frames, not just noise), plus malformed starters.
	hello := func(h helloMsg) []byte {
		frame, err := wire.AppendFrame(nil, lblHello, appendCtl(nil, helloFields, &h))
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	f.Add(hello(helloMsg{V: protoVersion, Dataset: "ids", Kind: KindSet, Seed: 7, D: 8}))
	f.Add(hello(helloMsg{V: protoVersion, Dataset: "ids", Kind: KindSet, Seed: 7, D: 8, CharPoly: true}))
	f.Add(hello(helloMsg{V: protoVersion, Dataset: "bag", Kind: KindMultiset, Seed: 3, D: 4}))
	f.Add(hello(helloMsg{V: protoVersion, Dataset: "docs", Kind: KindSetsOfSets, Seed: 9, Protocol: "cascade", D: 6, DHat: 4}))
	f.Add(hello(helloMsg{V: protoVersion, Dataset: "docs", Kind: KindSetsOfSets, Seed: 9, Protocol: "multiround", D: 6}))
	f.Add(hello(helloMsg{V: protoVersion, Dataset: "net", Kind: KindGraph, Seed: 14, Scheme: "degree", D: 2, TopH: 2, N: 600}))
	f.Add(hello(helloMsg{V: protoVersion, Dataset: "tree", Kind: KindForest, Seed: 5, D: 3, N: 32}))
	f.Add(hello(helloMsg{V: protoVersion, Dataset: "ids", Kind: KindSet, Seed: 1, D: 1 << 40}))
	f.Add(hello(helloMsg{V: 99, Dataset: "ids", Kind: KindSet}))
	f.Add(hello(helloMsg{V: protoVersion, Dataset: "ids", Kind: KindSet, ShardID: 1, ShardCount: 3, ShardSet: 2, ShardEpoch: 7}))
	for _, payload := range []string{
		`{"v":3,"dataset":"docs","kind":"sos","seed":9,"d":6,"protocol":"cascade"}`, // a v3 peer
		`{"v":2,"dataset":`,
		"\x01\x04\x02\x09",            // a kind no table holds
		"\x01\x04\x02\x01\x03\x40ids", // a longer name announced than sent
		"\x02\x01\x01\x04",            // the version out of its place
	} {
		frame, err := wire.AppendFrame(nil, lblHello, []byte(payload))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Whole conversations, so the fuzzer also mutates what follows a served
	// session on the same connection: the closing done, a second session, and
	// bytes that are neither.
	done, err := wire.AppendFrame(nil, lblDone, appendCtl(nil, doneFields, &doneMsg{OK: true, Rounds: 1, Bytes: 348, Messages: 1, Attempts: 1}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(done) // a wrong label where the hello belongs
	session := append(hello(helloMsg{V: protoVersion, Dataset: "ids", Kind: KindSet, Seed: 7, D: 8}), done...)
	f.Add(session)
	f.Add(append(append([]byte(nil), session...), session...))
	f.Add(append(append([]byte(nil), session...), "GET / HTTP/1.1\r\n\r\n"...))
	f.Add(append(append([]byte(nil), session...), session[:len(session)-3]...))
	f.Add([]byte{})
	f.Add([]byte("SOSW"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		// Drain whatever the server answers so its writes never block on the
		// unbuffered pipe, and feed it the input; closing the client end when
		// the input is fully consumed unblocks every subsequent server read.
		go func() { _, _ = io.Copy(io.Discard, client) }()
		go func() {
			_, _ = client.Write(data)
			_ = client.Close()
		}()
		done := make(chan struct{})
		go func() {
			srv.handle(server)
			// The server may have stopped reading mid-input (reject paths);
			// closing its end unblocks the writer so nothing leaks.
			_ = server.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("handler hung on %d-byte input", len(data))
		}
	})
}
