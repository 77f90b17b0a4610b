// Netsync: reconcile a replica against a live sosrd server over real TCP.
// A server hosting a document corpus starts on a loopback listener; a client
// holding a drifted replica dials it and ends up with the server's corpus,
// paying communication proportional to the difference — and the wire carries
// exactly the payload bytes the in-process simulation predicts, plus a few
// hundred bytes of framing.
//
//	go run ./examples/netsync
//
// It exits non-zero unless the two byte counts match.
package main

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"time"

	"sosr"
	"sosr/sosrnet"
)

func main() {
	// The server's corpus: each child set is a document's shingle set.
	corpus := [][]uint64{
		{101, 102, 103, 104},
		{200, 201, 202},
		{300, 301, 302, 303, 304},
		{400, 401},
		{500, 501, 502},
	}
	// The client's replica drifted: one document edited, one missing.
	replica := [][]uint64{
		{101, 102, 103, 104},
		{200, 201, 299}, // edited
		{300, 301, 302, 303, 304},
		{500, 501, 502},
		// {400, 401} never arrived
	}
	d := sosr.SetsOfSetsDistance(corpus, replica)
	fmt.Printf("ground-truth difference d = %d\n", d)

	// --- Server machine ---
	srv := sosrnet.NewServer()
	srv.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := srv.HostSetsOfSets("corpus", corpus); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	// --- Client machine (only the address and the seed are shared) ---
	client := sosrnet.Dial(ln.Addr().String())
	defer client.Close() // sessions reuse the connection; Close releases it
	res, ns, err := client.SetsOfSets(context.Background(), "corpus", replica, sosr.Config{
		Seed:      1234,
		KnownDiff: d, // or 0 for the estimator/doubling variants
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("client recovered %d documents; %d added, %d removed\n",
		len(res.Recovered), len(res.Added), len(res.Removed))
	fmt.Printf("protocol: %d bytes in %d round(s)\n", ns.Protocol.TotalBytes, ns.Protocol.Rounds)
	fmt.Printf("wire:     %d bytes total (%d payload + %d framing/handshake)\n",
		ns.WireIn+ns.WireOut, ns.Protocol.TotalBytes, ns.Overhead)

	// The same configuration simulated in-process predicts the wire payload
	// byte for byte; anything else is a failure.
	sim, err := sosr.ReconcileSetsOfSets(corpus, replica, sosr.Config{Seed: 1234, KnownDiff: d})
	if err != nil {
		log.Fatal(err)
	}
	if sim.Stats.TotalBytes != ns.Protocol.TotalBytes {
		log.Fatalf("in-process simulation: %d bytes — MISMATCH with the wire's %d", sim.Stats.TotalBytes, ns.Protocol.TotalBytes)
	}
	fmt.Printf("in-process simulation: %d bytes — byte-exact match\n", sim.Stats.TotalBytes)
}
