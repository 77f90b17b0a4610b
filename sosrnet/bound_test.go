package sosrnet

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"sync"
	"testing"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/obs"
	"sosr/internal/transport"
	"sosr/internal/wire"
	"sosr/internal/workload"
)

// The bound audit must be quiet on every healthy session and loud on a
// payload that grows with the hosted data. Both directions, one envelope.

// envelopeWarnings collects the audit's log records.
type envelopeWarnings struct {
	mu   sync.Mutex
	recs []string
}

func (w *envelopeWarnings) logger() *slog.Logger {
	return slog.New(hookHandler{fn: func(r slog.Record) {
		if r.Message != "session exceeded communication envelope" {
			return
		}
		line := ""
		r.Attrs(func(a slog.Attr) bool {
			line += fmt.Sprintf(" %s=%v", a.Key, a.Value)
			return true
		})
		w.mu.Lock()
		w.recs = append(w.recs, line)
		w.mu.Unlock()
	}})
}

func (w *envelopeWarnings) all() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.recs...)
}

// TestHealthySessionsStayInsideEnvelope runs every kind and protocol at the
// benchmark's parameters (bench/workloads.go: s=200 and 2000, h=10, d from 8
// to 32, known and unknown; the graphs and the forest of cold_kinds_tcp) and
// requires that none is flagged, that every one lands in the resolved part
// of the histogram, and that the ratio does not depend on s.
func TestHealthySessionsStayInsideEnvelope(t *testing.T) {
	sosA, sosB := workload.PlantedSetsOfSets(1, 200, 10, 1<<32, 16)
	bigA, bigB := workload.PlantedSetsOfSets(1, 2000, 10, 1<<32, 16)
	setA := seqSet(0, 20000)
	setB := append(seqSet(16, 20000), seqSet(100000, 100016)...)
	multiA := append(seqSet(0, 1500), seqSet(0, 700)...)
	multiB := append(seqSet(4, 1500), seqSet(0, 700)...)
	base, degH, err := sosr.PlantedSeparatedGraph(480, 2, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	degA, degB := sosr.PerturbGraph(base, 1, 12), sosr.PerturbGraph(base, 1, 13)
	var nbrA, nbrB sosr.Graph
	for try := uint64(0); ; try++ {
		if b := sosr.RandomGraph(128, 0.5, try*7+1); sosr.NeighborhoodDisjointness(b, 96) >= 9 {
			nbrA, nbrB = sosr.PerturbGraph(b, 1, 21), b
			break
		}
	}
	forA := sosr.RandomForest(600, 0.2, 51)
	forB := sosr.PerturbForest(forA, 3, 52)

	var warns envelopeWarnings
	tracer := &obs.Tracer{SampleRate: 1, MaxTraces: 256}
	srv, addr, _ := startServer(t, func(s *Server) {
		s.Logger = warns.logger()
		s.Trace = tracer
		for _, err := range []error{
			s.HostSets("set", setA), s.HostMultiset("multi", multiA),
			s.HostSetsOfSets("sos", sosA), s.HostSetsOfSets("big", bigA),
			s.HostGraph("deg", degA), s.HostGraph("nbr", nbrA), s.HostForest("forest", forA),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	c := Dial(addr)
	defer c.Close()
	ctx := context.Background()
	sessions := 0
	run := func(what string, err error) {
		t.Helper()
		sessions++
		// A randomised attempt may fail to decode; the session is audited all
		// the same, and a failed decode is not a blown envelope.
		if err != nil {
			t.Logf("%s: %v", what, err)
		}
	}
	for _, cfg := range []sosr.SetConfig{{KnownDiff: 32}, {}, {KnownDiff: 32, UseCharPoly: true}, {KnownDiff: 2}} {
		cfg.Seed = 1
		_, _, err := c.Sets(ctx, "set", setB, cfg)
		run(fmt.Sprintf("set %+v", cfg), err)
	}
	for _, d := range []int{16, 0} {
		_, _, err := c.Multiset(ctx, "multi", multiB, d, 3)
		run(fmt.Sprintf("multiset d=%d", d), err)
	}
	for _, ds := range []struct {
		name string
		bob  [][]uint64
	}{{"sos", sosB}, {"big", bigB}} {
		for _, proto := range []sosr.Protocol{sosr.ProtocolNaive, sosr.ProtocolNested, sosr.ProtocolCascade, sosr.ProtocolMultiRound} {
			for _, d := range []int{8, 16, 32, 0} {
				_, _, err := c.SetsOfSets(ctx, ds.name, ds.bob, sosr.Config{Seed: 3, Protocol: proto, KnownDiff: d})
				run(fmt.Sprintf("%s %v d=%d", ds.name, proto, d), err)
			}
		}
	}
	_, _, err = c.Graph(ctx, "deg", degB, sosr.GraphConfig{Seed: 14, Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: degH})
	run("graph degree", err)
	_, _, err = c.Graph(ctx, "nbr", nbrB, sosr.GraphConfig{Seed: 22, Scheme: sosr.SchemeDegreeNeighborhood, MaxEdits: 1, DegreeThreshold: 96})
	run("graph neighbourhood", err)
	for _, cfg := range []sosr.ForestConfig{{Seed: 53, MaxEdits: 3, Depth: 16}, {Seed: 53}} {
		_, _, err := c.Forest(ctx, "forest", forB, cfg)
		run(fmt.Sprintf("forest %+v", cfg), err)
	}

	hist := srv.Registry().GetHistogram("sosr_bound_ratio")
	waitFor(t, "every session audited", func() bool { return hist.Count() == uint64(sessions) })
	if got := warns.all(); len(got) != 0 {
		t.Fatalf("%d healthy sessions flagged:\n%v", len(got), got)
	}
	if len(tracer.Flagged()) != 0 {
		t.Fatalf("healthy sessions landed in the flagged-trace ring: %+v", tracer.Flagged())
	}
	lo, hi := hist.Quantile(0), hist.Quantile(1)
	t.Logf("bound ratio over %d healthy sessions: %.2f .. %.2f (mean %.2f), envelope %v",
		sessions, lo, hi, hist.Sum()/float64(hist.Count()), float64(DefaultBoundEnvelope))
	if top := boundRatioBuckets[len(boundRatioBuckets)-1]; hi > DefaultBoundEnvelope || top < 4*DefaultBoundEnvelope {
		t.Fatalf("healthy maximum %.2f against envelope %v, top bucket %v", hi, float64(DefaultBoundEnvelope), top)
	}
}

// TestEnvelopeFlagsPayloadThatGrowsWithS drives the real accounting with the
// payload of a regressed naive encoder — its parent table sized by the hosted
// child sets instead of by d̂ — next to the healthy one, at fixed d = 32 and
// doubling s: the healthy ratio does not move and is never flagged; the
// regressed one doubles with s and is flagged once s is a few multiples of d̂.
func TestEnvelopeFlagsPayloadThatGrowsWithS(t *testing.T) {
	const d = 32
	var warns envelopeWarnings
	srv := NewServer()
	srv.Logger = warns.logger()
	// audited accounts one session whose server sent payloadBytes under the
	// naive plan for (s, d) and reports its ratio and whether it was flagged.
	audited := func(s, payloadBytes int) (ratio float64, flagged bool) {
		t.Helper()
		p := core.Params{S: s, H: 10, U: 1 << 32}
		var sink bytes.Buffer
		c := &srvConn{ep: wire.NewEndpoint(&sink, transport.Alice), remote: "test", seq: 1}
		if err := c.ep.SendFrame("naive-iblt", make([]byte, payloadBytes)); err != nil {
			t.Fatal(err)
		}
		rec := &sessionRecord{sid: 1, proto: "naive", done: doneMsg{OK: true}, closed: true}
		rec.h.Kind = KindSetsOfSets
		rec.tr.bounds(d, core.DHat(d, s))
		rec.tr.audit(core.DHat(d, s), core.CellBytes(core.DigestNaive, p, d))
		before := len(warns.all())
		ratio = rec.tr.boundRatio(c.ep.Stats().AliceBytes) // read before account clears the record
		srv.account(c, rec)
		return ratio, len(warns.all()) > before
	}
	cell := core.CellBytes(core.DigestNaive, core.Params{S: 1, H: 10, U: 1 << 32}, d)
	var prevHealthy, prevGrowing float64
	everFlagged := false
	for s := 200; s <= 3200; s *= 2 {
		// An empty parent: the payload's size is the plan's, not the data's.
		healthyMsg, err := core.AliceMsg(core.DigestNaive, hashing.Coins{}, nil, core.Params{S: s, H: 10, U: 1 << 32}, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		healthy, hFlag := audited(s, len(healthyMsg))
		growing, gFlag := audited(s, iblt.SerializedSizeFor(iblt.CellsFor(2*s), cell-12, 0))
		t.Logf("s=%4d: healthy ratio %.2f flagged=%v, table sized by s: ratio %.2f flagged=%v", s, healthy, hFlag, growing, gFlag)
		if hFlag || healthy > DefaultBoundEnvelope/4 {
			t.Fatalf("s=%d: healthy naive payload flagged (ratio %.2f)", s, healthy)
		}
		if prevHealthy != 0 && (healthy < 0.95*prevHealthy || healthy > 1.05*prevHealthy) {
			t.Fatalf("s=%d: healthy ratio moved with s: %.2f -> %.2f", s, prevHealthy, healthy)
		}
		if prevGrowing != 0 && (growing < 1.9*prevGrowing || growing > 2.1*prevGrowing) {
			t.Fatalf("s=%d: a payload sized by s should double its ratio with s: %.2f -> %.2f", s, prevGrowing, growing)
		}
		if gFlag != (growing > DefaultBoundEnvelope) {
			t.Fatalf("s=%d: ratio %.2f against envelope %v, flagged=%v", s, growing, float64(DefaultBoundEnvelope), gFlag)
		}
		if everFlagged && !gFlag {
			t.Fatalf("s=%d: flagged at a smaller s but not here", s)
		}
		everFlagged = everFlagged || gFlag
		prevHealthy, prevGrowing = healthy, growing
	}
	if !everFlagged || prevGrowing < 8*DefaultBoundEnvelope {
		t.Fatalf("a payload that doubles with s was never far outside the envelope (last ratio %.2f)", prevGrowing)
	}
	// Flagged at s = 400 already: twelve times d̂.
	if r, flagged := audited(400, iblt.SerializedSizeFor(iblt.CellsFor(800), cell-12, 0)); !flagged {
		t.Fatalf("table sized by s=400 at d̂=32 not flagged (ratio %.2f)", r)
	}
}
