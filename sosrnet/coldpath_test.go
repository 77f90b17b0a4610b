package sosrnet

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"sosr"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/obs"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/transport"
	"sosr/internal/wire"
)

// TestEveryKindHasDecodeSpan: a traced session of every kind records the
// client's apply as a "decode" span (it used to be sets-of-sets alone, and
// every other kind's apply was read as transfer time), the unknown-d flows
// record the client's probe build as an "estimate" span, and the server
// records round 3 of the multi-round protocol — built per session, never
// cached — as an "encode" span. Each server stage's sosr_stage_seconds sum
// moves by exactly what that stage's spans in the session's trace add up to:
// one clock reading feeds both.
func TestEveryKindHasDecodeSpan(t *testing.T) {
	aliceSOS, bobSOS := sosPair()
	aliceSet, bobSet := setPair()
	multiA := append(seqSet(0, 300), seqSet(0, 100)...)
	multiB := append(seqSet(2, 300), seqSet(0, 100)...)
	base, degH, err := sosr.PlantedSeparatedGraph(480, 2, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	degA, degB := sosr.PerturbGraph(base, 1, 12), sosr.PerturbGraph(base, 1, 13)
	forA := sosr.RandomForest(200, 0.2, 51)
	forB := sosr.PerturbForest(forA, 2, 52)
	srv, addr, _ := startServer(t, func(s *Server) {
		s.Trace = &obs.Tracer{SampleRate: 0, MaxTraces: 64}
		for _, err := range []error{
			s.HostSets("set", aliceSet), s.HostMultiset("multi", multiA), s.HostSetsOfSets("sos", aliceSOS),
			s.HostGraph("deg", degA), s.HostForest("forest", forA),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	ctx := context.Background()
	stages := []string{"hello", "estimate", "encode", "transfer"}
	stageSum := func(stage string) float64 {
		if h := srv.Registry().GetHistogram("sosr_stage_seconds", stage); h != nil {
			return h.Sum()
		}
		return 0
	}
	var walk func(spans []*obs.SpanDump, visit func(*obs.SpanDump))
	walk = func(spans []*obs.SpanDump, visit func(*obs.SpanDump)) {
		for _, sp := range spans {
			visit(sp)
			walk(sp.Children, visit)
		}
	}
	count := func(spans []*obs.SpanDump, name string) (n int) {
		walk(spans, func(sp *obs.SpanDump) {
			if sp.Name == name {
				n++
			}
		})
		return n
	}
	for _, tc := range []struct {
		name         string
		clientSpans  []string
		serverEncode string // the "proto" of a server encode span that must exist
		run          func(c *Client) error
	}{
		{"set known d", []string{"decode"}, "", func(c *Client) error {
			_, _, err := c.Sets(ctx, "set", bobSet, sosr.SetConfig{Seed: 3, KnownDiff: 16})
			return err
		}},
		{"set charpoly", []string{"decode"}, "", func(c *Client) error {
			_, _, err := c.Sets(ctx, "set", bobSet, sosr.SetConfig{Seed: 3, KnownDiff: 16, UseCharPoly: true})
			return err
		}},
		{"set unknown d", []string{"estimate", "decode"}, "", func(c *Client) error {
			_, _, err := c.Sets(ctx, "set", bobSet, sosr.SetConfig{Seed: 3})
			return err
		}},
		{"multiset", []string{"decode"}, "", func(c *Client) error {
			_, _, err := c.Multiset(ctx, "multi", multiB, 16, 3)
			return err
		}},
		{"multiset unknown d", []string{"estimate", "decode"}, "", func(c *Client) error {
			_, _, err := c.Multiset(ctx, "multi", multiB, 0, 3)
			return err
		}},
		{"sos naive unknown d", []string{"estimate", "decode"}, "", func(c *Client) error {
			_, _, err := c.SetsOfSets(ctx, "sos", bobSOS, sosr.Config{Seed: 3, Protocol: sosr.ProtocolNaive})
			return err
		}},
		{"sos multiround unknown d", []string{"estimate", "decode"}, "mr3", func(c *Client) error {
			_, _, err := c.SetsOfSets(ctx, "sos", bobSOS, sosr.Config{Seed: 3, Protocol: sosr.ProtocolMultiRound})
			return err
		}},
		{"graph degree-ordering", []string{"decode"}, "", func(c *Client) error {
			_, _, err := c.Graph(ctx, "deg", degB, sosr.GraphConfig{Seed: 14, Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: degH})
			return err
		}},
		{"forest", []string{"decode"}, "", func(c *Client) error {
			_, _, err := c.Forest(ctx, "forest", forB, sosr.ForestConfig{Seed: 53, MaxEdits: 2, Depth: 16})
			return err
		}},
	} {
		before := make([]float64, len(stages))
		for i, stage := range stages {
			before[i] = stageSum(stage)
		}
		c := Dial(addr)
		c.Trace = &obs.Tracer{SampleRate: 1}
		// A randomised attempt may fail to decode; its spans are recorded all
		// the same, with ok=false.
		if err := tc.run(c); err != nil {
			t.Logf("%s: %v", tc.name, err)
		}
		c.Close()
		recent := c.Trace.Recent()
		if len(recent) != 1 {
			t.Fatalf("%s: %d client traces, want 1", tc.name, len(recent))
		}
		tid, err := obs.ParseTraceID(recent[0].Trace)
		if err != nil {
			t.Fatal(err)
		}
		client := c.Trace.Get(tid)
		root := findSpan(client.Roots, "client/session")
		for _, name := range tc.clientSpans {
			if findSpan([]*obs.SpanDump{root}, name) == nil {
				t.Errorf("%s: client session has no %q span", tc.name, name)
			}
		}
		// The server observes a session's stage times before its session
		// span finishes, so once every session's span is in, so are they.
		sessions := count(client.Roots, "client/session")
		var server *obs.TraceDump
		waitFor(t, tc.name+": server session spans", func() bool {
			server = srv.Trace.Get(tid)
			return server != nil && count(server.Roots, "server/session") == sessions
		})
		ms := map[string]float64{}
		var enc *obs.SpanDump
		walk(server.Roots, func(sp *obs.SpanDump) {
			ms[sp.Name] += sp.Ms
			if sp.Name == "encode" && sp.Attrs["proto"] == tc.serverEncode {
				enc = sp
			}
		})
		for i, stage := range stages {
			if got := (stageSum(stage) - before[i]) * 1e3; math.Abs(got-ms[stage]) > 1e-6 {
				t.Errorf("%s: sosr_stage_seconds{stage=%q} moved by %.6f ms, its spans sum to %.6f ms", tc.name, stage, got, ms[stage])
			}
		}
		if tc.serverEncode != "" && enc == nil {
			t.Errorf("%s: server session has no encode span with proto=%s", tc.name, tc.serverEncode)
		}
	}
}

// TestEstimateStageExcludesTheClient: the server's estimate stage starts when
// Bob's probe has arrived. A raw client that waits 50 ms between the accept
// and its probe must not show up as server estimate time: the wait is the
// client's.
func TestEstimateStageExcludesTheClient(t *testing.T) {
	alice, bob := setPair()
	srv, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("set", alice); err != nil {
			t.Fatal(err)
		}
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const seed, wait = 3, 50 * time.Millisecond
	ep := wire.NewEndpoint(conn, transport.Bob)
	h := helloMsg{V: protoVersion, Dataset: "set", Kind: KindSet, Seed: seed}
	if err := ep.SendFrame(lblHello, appendCtl(nil, helloFields, &h)); err != nil {
		t.Fatal(err)
	}
	if _, err := recvOrServerError(ep, lblAccept); err != nil {
		t.Fatal(err)
	}
	time.Sleep(wait)
	if err := ep.SendFrame(flowSetUnknownD.probe, setrecon.BuildDiffEstimator(hashing.NewCoins(seed), bob)); err != nil {
		t.Fatal(err)
	}
	if _, err := recvOrServerError(ep, flowSetUnknownD.labels[0]); err != nil {
		t.Fatal(err)
	}
	if err := ep.SendFrame(lblDone, appendCtl(nil, doneFields, &doneMsg{OK: true, Rounds: 2})); err != nil {
		t.Fatal(err)
	}
	var est *obs.Histogram
	waitFor(t, "the session's stage times", func() bool {
		est = srv.Registry().GetHistogram("sosr_stage_seconds", "estimate")
		return est != nil && est.Count() == 1
	})
	if got := time.Duration(est.Sum() * float64(time.Second)); got >= wait/5 {
		t.Fatalf("the server's estimate stage took %v while the client waited %v before its probe", got, wait)
	}
}

// TestCraftedMultisetWordFailsSession plays a server that reconciles a packed
// multiset honestly — right table, right verification hash — except that one
// of the words it makes the client recover is none the §3.4 packing can
// produce. The client must end the session as ErrMultisetRange and tell the
// server so, not expand the word: its count field is 16 bits wide, and 65 535
// copies of an element is 16 times what the packing allows.
func TestCraftedMultisetWordFailsSession(t *testing.T) {
	local := []uint64{4, 4, 9, 9, 9, 30}
	honest, err := setrecon.MultisetToSet(local)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		word uint64
		want error
	}{
		{"one more copy of an element", setrecon.PackCounted(30, 2), nil},
		{"the largest packable multiplicity", setrecon.PackCounted(77, setrecon.MaxMultiplicity), nil},
		{"multiplicity 4 096", setrecon.PackCounted(77, setrecon.MaxMultiplicity+1), setrecon.ErrMultisetRange},
		{"multiplicity 65 535", 0xffff<<48 | 77, setrecon.ErrMultisetRange},
		{"multiplicity 0", 77, setrecon.ErrMultisetRange},
	} {
		const seed = 21
		alice := setutil.Canonical(append(setutil.Clone(honest), tc.word))
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
			if ep.SendFrame(lblAccept, appendCtl(nil, acceptFields, &acceptMsg{V: protoVersion, Kind: KindMultiset, D: 8})) != nil {
				return
			}
			// BuildIBLTMsg's bytes, built by hand: any server can.
			coins := hashing.NewCoins(seed)
			tab := iblt.NewUint64(iblt.CellsFor(8), 0, coins.Seed("setrecon/iblt", 0))
			for _, x := range alice {
				tab.InsertUint64(x)
			}
			msg := binary.LittleEndian.AppendUint64(tab.AppendMarshal(nil), setutil.Hash(coins.Seed("setrecon/verify", 0), alice))
			if ep.SendFrame("iblt", msg) != nil {
				return
			}
			if done, err := recvDone(ep); err == nil {
				served <- done
			}
		}()
		c := Dial(ln.Addr().String())
		rec, _, err := c.Multiset(context.Background(), "multi", local, 8, seed)
		c.Close()
		done := <-served
		ln.Close()
		if done == nil {
			t.Fatalf("%s: the fake server saw no closing frame", tc.name)
		}
		if tc.want == nil {
			if err != nil || !done.OK || len(rec) <= len(local) {
				t.Errorf("%s: err %v, done %+v, %d elements recovered", tc.name, err, done, len(rec))
			}
			continue
		}
		if !errors.Is(err, tc.want) || done.OK || rec != nil {
			t.Errorf("%s: err = %v (want %v), done %+v, %d elements recovered", tc.name, err, tc.want, done, len(rec))
		}
	}
}
