// Command sosbench regenerates the paper's evaluation artifacts and the
// supporting experiments (README's "Dataset kinds" and "Package map" say where
// each protocol lives; PAPER.md names the paper whose Table 1, Figure 1 and §5
// graph results these reproduce):
//
//	sosbench -experiment table1       # Table 1: the four SSRK protocols
//	sosbench -experiment figure1      # Figure 1: ambiguous two-way merge
//	sosbench -experiment iblt         # E3: IBLT decode over d × cells per key × k
//	sosbench -experiment sets         # E4, E14: set and multiset reconciliation
//	sosbench -experiment estimator    # E5: Thm 3.1 estimator vs strata [14]
//	sosbench -experiment crossover    # E7: nested vs cascade over d
//	sosbench -experiment unknownd     # E9: unknown-d variants
//	sosbench -experiment graphs       # E10, E11: polynomial and degree-ordering schemes
//	sosbench -experiment separation   # E11b: honest G(n,p) separation rate
//	sosbench -experiment neighborhood # E12: degree-neighborhood scheme
//	sosbench -experiment forest       # E13: forest reconciliation
//	sosbench -experiment all          # everything
//
// Every protocol row runs the public entry point a caller would (the sosr
// package's Reconcile* functions) once per trial, on coins from its config's
// Seed, and counts the trials that came back ok, came back wrong (a result
// without an error that is not Alice's data; must be 0), or failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"sosr"
	"sosr/internal/estimator"
	"sosr/internal/graphrecon"
	"sosr/internal/iblt"
	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/internal/workload"
)

// experiments is the list -experiment all runs, in order; the usage above
// names exactly these.
var experiments = []struct {
	name string
	run  func(*bench)
}{
	{"table1", (*bench).table1}, {"figure1", (*bench).figure1}, {"iblt", (*bench).iblt},
	{"sets", (*bench).sets}, {"estimator", (*bench).estimator}, {"crossover", (*bench).crossover},
	{"unknownd", (*bench).unknownD}, {"graphs", (*bench).graphs}, {"separation", (*bench).separation},
	{"neighborhood", (*bench).neighborhood}, {"forest", (*bench).forest},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sosbench:", err)
		os.Exit(2)
	}
}

// run parses args and writes the selected experiments to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sosbench", flag.ContinueOnError)
	fs.SetOutput(w)
	experiment := fs.String("experiment", "all", "which experiment to run (table1, figure1, iblt, sets, estimator, crossover, unknownd, graphs, separation, neighborhood, forest, all)")
	trials := fs.Int("trials", 5, "trials per configuration")
	seed := fs.Uint64("seed", 1, "master seed")
	s := fs.Int("s", 48, "child sets per parent (Table 1 regime)")
	h := fs.Int("h", 16384, "columns / max child size (Table 1 regime; the paper's ordering needs large u)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d: want at least 1", *trials)
	}
	b := &bench{w: tabwriter.NewWriter(w, 0, 0, 2, ' ', 0), trials: *trials, seed: *seed, s: *s, h: *h}
	ran := false
	for _, e := range experiments {
		if *experiment == "all" {
			b.printf("\n════ %s ════\n", e.name)
		} else if *experiment != e.name {
			continue
		}
		e.run(b)
		if err := b.w.Flush(); err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
}

// bench is one run's settings and its output: every line goes through one
// tabwriter, so tab-separated rows align under their header.
type bench struct {
	w      *tabwriter.Writer
	trials int
	seed   uint64
	s, h   int
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.w, format, args...) }

// row prints one tab-separated line.
func (b *bench) row(cells ...any) { b.printf(strings.Repeat("%v\t", len(cells)-1)+"%v\n", cells...) }

// header prints a protocol table's header: cols, then the columns result
// ends every row with.
func (b *bench) header(cols ...any) {
	b.row(append(cols, "wire bytes", "rounds", "time", "ok", "wrong")...)
}

// result prints a protocol row: cells, then t's means per returned result,
// mean time per trial, and counts.
func (b *bench) result(t tally, cells ...any) {
	n := max(t.ok+t.wrong, 1)
	b.row(append(cells, t.meanBytes(), fmt.Sprintf("%.1f", float64(t.rounds)/float64(n)),
		(t.elapsed / time.Duration(t.trials)).Round(time.Microsecond), fmt.Sprintf("%d/%d", t.ok, t.trials), t.wrong)...)
}

// tally is one row's trials: those that came back ok, came back wrong, or
// failed, and the communication and time of those that came back.
type tally struct {
	trials, ok, wrong, bytes, rounds int
	elapsed                          time.Duration
}

// meanBytes is the mean wire bytes of the trials that returned a result.
func (t tally) meanBytes() int { return t.bytes / max(t.ok+t.wrong, 1) }

// measure runs one row: trial i on coins seed+i. Only run is timed; the
// check it returns says whether Bob's result is Alice's data.
func (b *bench) measure(seed uint64, run func(seed uint64) (sosr.Stats, func() bool, error)) tally {
	t := tally{trials: b.trials}
	for i := 0; i < b.trials; i++ {
		start := time.Now()
		st, right, err := run(seed + uint64(i))
		t.elapsed += time.Since(start)
		if err != nil {
			continue
		}
		t.bytes += st.TotalBytes
		t.rounds += st.Rounds
		if right() {
			t.ok++
		} else {
			t.wrong++
		}
	}
	return t
}

// sos measures sosr.ReconcileSetsOfSets under cfg; a result is right when it
// holds exactly Alice's child sets.
func (b *bench) sos(seed uint64, alice, bob [][]uint64, cfg sosr.Config) tally {
	return b.measure(seed, func(seed uint64) (sosr.Stats, func() bool, error) {
		cfg.Seed = seed
		res, err := sosr.ReconcileSetsOfSets(alice, bob, cfg)
		if err != nil {
			return sosr.Stats{}, nil, err
		}
		return res.Stats, func() bool { return setutil.EqualSetOfSets(res.Recovered, alice) }, nil
	})
}

// graph measures sosr.ReconcileGraphs under cfg; a result is right when it is
// isomorphic to Alice's graph.
func (b *bench) graph(seed uint64, alice, bob sosr.Graph, cfg sosr.GraphConfig) tally {
	return b.measure(seed, func(seed uint64) (sosr.Stats, func() bool, error) {
		cfg.Seed = seed
		res, err := sosr.ReconcileGraphs(alice, bob, cfg)
		if err != nil {
			return sosr.Stats{}, nil, err
		}
		return res.Stats, func() bool { return sosr.GraphsExactlyIsomorphic(res.Recovered, alice) }, nil
	})
}

// database returns the Table 1 instance: Bob's random binary database of s
// rows over h columns, and Alice's copy with d bits flipped.
func database(seed, flipSeed uint64, s, h, d int) (alice, bob [][]uint64) {
	db := workload.RandomDatabase(seed, s, h, 0.5, nil)
	return workload.FlipBits(db, d, prng.New(flipSeed)).SetsOfSets(), db.SetsOfSets()
}

// table1 regenerates Table 1 empirically on the binary-database regime, with
// one replica per session so ok is the per-session success rate. The paper
// asserts the communication order naive > nested > cascade > multiround at
// large u and small d, and computation naive < nested < cascade ≈ multiround
// (multiround pays rounds instead of bytes); the order printed after the
// table is the one the rows measured.
func (b *bench) table1() {
	s, h := b.s, b.h
	b.printf("Table 1 regime: s=%d child sets, h=u=%d columns, density 0.5, n≈%d\n", s, h, s*h/2)
	b.header("protocol", "d")
	rows := []struct {
		name  string
		proto sosr.Protocol
		u     uint64
	}{
		{"naive (Thm 3.3)", sosr.ProtocolNaive, uint64(h)},
		{"nested (Thm 3.5)", sosr.ProtocolNested, uint64(h)},
		{"cascade (Thm 3.7)", sosr.ProtocolCascade, uint64(h)},
		{"multiround (Thm 3.9)", sosr.ProtocolMultiRound, uint64(h)},
		{"naive list (u=2^40)", sosr.ProtocolNaive, 1 << 40}, // the element-list child encoding
	}
	var orders []string
	for _, d := range []int{2, 4, 8, 16} {
		alice, bob := database(b.seed+uint64(d), b.seed^uint64(d)*7, s, h, d)
		type measured struct {
			name  string
			bytes int
		}
		var order []measured
		for _, r := range rows {
			cfg := sosr.Config{MaxChildSets: s, MaxChildSize: h, Universe: r.u, Protocol: r.proto, KnownDiff: d, Replicas: 1}
			t := b.sos(b.seed+uint64(d)*31, alice, bob, cfg)
			b.result(t, r.name, d)
			if t.ok+t.wrong > 0 {
				name, _, _ := strings.Cut(r.name, " (")
				order = append(order, measured{name, t.meanBytes()})
			}
		}
		slices.SortStableFunc(order, func(x, y measured) int { return x.bytes - y.bytes })
		var parts []string
		for _, m := range order {
			parts = append(parts, fmt.Sprintf("%s %d", m.name, m.bytes))
		}
		orders = append(orders, fmt.Sprintf("  d=%d: %s", d, strings.Join(parts, " < ")))
	}
	b.printf("\nMeasured communication, ascending (bytes):\n%s\n", strings.Join(orders, "\n"))
}

// figure1 prints a concrete witness for Figure 1.
func (b *bench) figure1() {
	w, err := sosr.FindFigure1Example(5)
	if err != nil {
		b.printf("%v\n", err)
		return
	}
	b.printf("Figure 1 witness (5 vertices): merging unlabeled graphs is ambiguous.\nG1 edges: %v\nG2 edges: %v\n", w.G1.Edges, w.G2.Edges)
	b.printf("Merge X: add %v to G1 and %v to G2 -> isomorphic results %v\n", w.AddG1X, w.AddG2X, w.MergeX.Edges)
	b.printf("Merge Y: add %v to G1 and %v to G2 -> isomorphic results %v\n", w.AddG1Y, w.AddG2Y, w.MergeY.Edges)
	b.printf("X ≅ Y? %v  (the two valid merges disagree, so the union is ill-defined)\n",
		sosr.GraphsExactlyIsomorphic(w.MergeX, w.MergeY))
}

// iblt sweeps Theorem 2.1's constants (E3): d keys into d × ratio cells
// under k hash functions, 40 decodes per trial.
func (b *bench) iblt() {
	b.row("d", "cells/d", "k", "cells", "wire bytes", "decoded")
	src := prng.New(b.seed)
	reps := 40 * b.trials
	for _, d := range []int{4, 16, 64, 256} {
		for _, ratio := range []float64{1.25, 1.5, 2, 3} {
			for _, k := range []int{3, 4, 5} {
				cells, success := int(float64(d)*ratio), 0
				for r := 0; r < reps; r++ {
					t := iblt.NewUint64(cells, k, src.Uint64())
					for i := 0; i < d; i++ {
						t.InsertUint64(src.Uint64())
					}
					if _, _, err := t.Decode(); err == nil {
						success++
					}
				}
				b.row(d, ratio, k, cells, iblt.SerializedSizeFor(cells, 8, k), fmt.Sprintf("%.1f%%", 100*float64(success)/float64(reps)))
			}
		}
	}
	b.printf("Theorem 2.1: an O(d)-cell table decodes d keys whp; the protocols size tables by iblt.CellsFor(d) = 2d+10, k = 4.\n")
}

// sets compares Corollary 2.2 (IBLT), Theorem 2.3 (characteristic
// polynomial) and Corollary 3.2 (estimator, then IBLT) on n = 2^14 sets (E4),
// and §3.4's multisets (E14).
func (b *bench) sets() {
	const n = 1 << 14
	b.header("protocol", "n", "d")
	for _, d := range []int{4, 32, 256} {
		src := prng.New(b.seed + uint64(d))
		var alice, bob []uint64
		for i := 0; i < n+d; i++ {
			x := src.Uint64() % (1 << 59)
			if i < n || i%2 == 0 {
				alice = append(alice, x)
			}
			if i < n || i%2 == 1 {
				bob = append(bob, x)
			}
		}
		want := setutil.Canonical(alice)
		for _, r := range []struct {
			name string
			cfg  sosr.SetConfig
		}{{"IBLT (Cor 2.2)", sosr.SetConfig{KnownDiff: d}}, {"charpoly (Thm 2.3)", sosr.SetConfig{KnownDiff: d, UseCharPoly: true}},
			{"estimator+IBLT (Cor 3.2)", sosr.SetConfig{}}} {
			if r.cfg.UseCharPoly && d > 32 { // cubic root finding
				continue
			}
			t := b.measure(b.seed+uint64(d), func(seed uint64) (sosr.Stats, func() bool, error) {
				r.cfg.Seed = seed
				res, err := sosr.ReconcileSets(alice, bob, r.cfg)
				if err != nil {
					return sosr.Stats{}, nil, err
				}
				return res.Stats, func() bool { return slices.Equal(res.Recovered, want) }, nil
			})
			b.result(t, r.name, n, d)
		}
	}
	// Multisets: 2 000 elements repeated 1–3 times, and 8 more on Alice's side.
	src := prng.New(b.seed + 8)
	var alice, bob []uint64
	for i := 0; i < 2008; i++ {
		x := src.Uint64() % (1 << 40)
		for r := 1 + src.Intn(3); r > 0 && i < 2000; r-- {
			alice, bob = append(alice, x), append(bob, x)
		}
		if i >= 2000 {
			alice = append(alice, x)
		}
	}
	want := slices.Sorted(slices.Values(alice))
	t := b.measure(b.seed+5, func(seed uint64) (sosr.Stats, func() bool, error) {
		rec, st, err := sosr.ReconcileMultisets(alice, bob, 16, seed)
		return st, func() bool { return slices.Equal(slices.Sorted(slices.Values(rec)), want) }, err
	})
	b.result(t, "multiset (§3.4)", len(alice), 8)
}

// estimator measures the accuracy and size of the Theorem 3.1 estimator at
// several parameterisations, against the strata estimator of [14] (E5).
func (b *bench) estimator() {
	b.row("estimator", "d", "mean estimate", "mean error ×", "sketch bytes")
	type sketch interface {
		Add(x uint64, side estimator.Side)
		Estimate() uint64
		SerializedSize() int
	}
	type variant struct {
		name string
		make func(seed uint64) sketch
	}
	variants := []variant{{"strata [14]", func(seed uint64) sketch { return estimator.NewStrata(32, 0, seed) }}}
	for _, p := range []estimator.Params{{Replicas: 3, Buckets: 63}, {Replicas: 1, Buckets: 63}, {Replicas: 5, Buckets: 63}, {Replicas: 3, Buckets: 126}} {
		variants = append(variants, variant{fmt.Sprintf("l0 r=%d b=%d (Thm 3.1)", p.Replicas, p.Buckets),
			func(seed uint64) sketch { return estimator.New(p, seed) }})
	}
	src := prng.New(b.seed + 3)
	for _, d := range []int{8, 64, 512, 4096} {
		for _, v := range variants {
			sum, errSum := uint64(0), 0.0
			for t := 0; t < b.trials; t++ {
				e := v.make(uint64(t))
				for k := 0; k < d; k++ {
					e.Add(src.Uint64(), estimator.Side(1+k%2))
				}
				est := e.Estimate()
				sum += est
				errSum += max(float64(est)/float64(d), float64(d)/float64(max(est, 1)))
			}
			b.row(v.name, d, sum/uint64(b.trials), fmt.Sprintf("%.2f", errSum/float64(b.trials)), v.make(0).SerializedSize())
		}
	}
	b.printf("The paper's estimator drops the O(log u) strata factor.\n")
}

// crossover sweeps d for nested vs cascade (E7).
func (b *bench) crossover() {
	s, h := 96, 96
	b.header("protocol", "d")
	for _, d := range []int{2, 4, 8, 16, 32, 64} {
		alice, bob := database(b.seed+uint64(d), b.seed+uint64(d)*3, s, h, d)
		for _, proto := range []sosr.Protocol{sosr.ProtocolNested, sosr.ProtocolCascade} {
			cfg := sosr.Config{MaxChildSets: s, MaxChildSize: h, Universe: uint64(h), Protocol: proto, KnownDiff: d, Replicas: 1}
			b.result(b.sos(b.seed+uint64(d), alice, bob, cfg), proto, d)
		}
	}
	b.printf("Theorem 3.5 is O(d̂·d log u); Theorem 3.7 is O(d log d log u): cascade wins once d is large.\n")
}

// unknownD compares the unknown-d variants (E9).
func (b *bench) unknownD() {
	s, h, d := b.s, b.h, 12
	alice, bob := database(b.seed+99, b.seed+100, s, h, d)
	b.printf("true d=%d (hidden from protocols)\n", d)
	b.header("variant")
	for _, r := range []struct {
		name  string
		proto sosr.Protocol
	}{{"naive estimator (Thm 3.4)", sosr.ProtocolNaive}, {"nested doubling (Cor 3.6)", sosr.ProtocolNested},
		{"cascade doubling (Cor 3.8)", sosr.ProtocolCascade}, {"multiround 4-round (Thm 3.10)", sosr.ProtocolMultiRound}} {
		cfg := sosr.Config{MaxChildSets: s, MaxChildSize: h, Universe: uint64(h), Protocol: r.proto}
		b.result(b.sos(b.seed+7, alice, bob, cfg), r.name)
	}
}

// graphs runs Theorem 4.3's polynomial scheme on a 6-vertex graph (E10) and
// the degree-ordering scheme on planted separated graphs (E11).
func (b *bench) graphs() {
	b.header("scheme", "n", "d", "h", "raw edges B")
	base := sosr.RandomGraph(6, 0.5, b.seed+4)
	t := b.graph(b.seed+3, base, sosr.PerturbGraph(base, 2, b.seed+5), sosr.GraphConfig{Scheme: sosr.SchemePolynomial, MaxEdits: 2})
	b.result(t, "polynomial (Thm 4.3)", 6, 2, "-", len(base.Edges)*8)
	for _, n := range []int{480, 960} {
		d := 2
		g, h, err := sosr.PlantedSeparatedGraph(n, d, 0.4, b.seed+uint64(n))
		if err != nil {
			b.printf("n=%d: %v\n", n, err)
			continue
		}
		ga, gb := sosr.PerturbGraph(g, 1, b.seed+uint64(n)+1), sosr.PerturbGraph(g, 1, b.seed+uint64(n)+2)
		t := b.graph(b.seed+2, ga, gb, sosr.GraphConfig{Scheme: sosr.SchemeDegreeOrdering, MaxEdits: d, TopDegrees: h})
		b.result(t, "degree ordering (Thm 5.2)", n, d, h, len(ga.Edges)*8)
	}
	b.printf("Theorem 5.2: O(d(log d log h + log n)) bits — constant in n, far below shipping the edges.\n")
}

// separation measures how often honest G(n, p) is separated (E11b): the gap
// between Theorem 5.3's asymptotics and laptop-scale n.
func (b *bench) separation() {
	src := prng.New(b.seed + 5)
	b.row("n", "p", "(h,2,3)-separated", "best h")
	for _, n := range []int{128, 256, 512, 1024} {
		rate, bestH := graphrecon.SeparationRate(n, 0.5, 2, 3, 32, 10, src)
		b.row(n, 0.5, fmt.Sprintf("%.0f%%", rate*100), bestH)
	}
	b.printf("Theorem 5.3 needs n far beyond laptop scale; the degree-ordering experiments therefore\n" +
		"use planted separated graphs (sosr.PlantedSeparatedGraph; the paper's §5, see PAPER.md).\n")
}

// neighborhood runs the §5.2 scheme on honest G(n, 1/2) (E12).
func (b *bench) neighborhood() {
	b.header("n", "disjoint", "supports d")
	for _, n := range []int{128, 256} {
		m := n * 3 / 4
		g := sosr.RandomGraph(n, 0.5, b.seed+6+uint64(n))
		k := sosr.NeighborhoodDisjointness(g, m)
		d := min((k-1)/8, 2)
		if d < 1 {
			b.printf("%d\t%d\tinsufficient disjointness\n", n, k)
			continue
		}
		ga, gb := sosr.PerturbGraph(g, d/2+d%2, b.seed+uint64(n)+1), sosr.PerturbGraph(g, d/2, b.seed+uint64(n)+2)
		t := b.graph(b.seed+8, ga, gb, sosr.GraphConfig{Scheme: sosr.SchemeDegreeNeighborhood, MaxEdits: d, DegreeThreshold: m})
		b.result(t, n, k, d)
	}
	b.printf("Theorem 5.6 costs ~O(dpn·polylog) bits — heavier than §5.1 but valid at honest laptop-scale n.\n")
}

// forest reconciles forests with a known bound and by doubling (E13).
func (b *bench) forest() {
	b.header("n", "d", "σ", "bound (0: doubling)")
	for _, n := range []int{200, 600, 1800} {
		d := 3
		fa := sosr.RandomForest(n, 0.2, b.seed+7+uint64(n))
		fb := sosr.PerturbForest(fa, d, b.seed+8+uint64(n))
		sigma := max(fa.Depth(), fb.Depth())
		for _, bound := range []int{d, 0} {
			cfg := sosr.ForestConfig{MaxEdits: bound, Depth: sigma}
			t := b.measure(b.seed+9, func(seed uint64) (sosr.Stats, func() bool, error) {
				cfg.Seed = seed
				res, err := sosr.ReconcileForests(fa, fb, cfg)
				if err != nil {
					return sosr.Stats{}, nil, err
				}
				return res.Stats, func() bool { return sosr.ForestsIsomorphic(res.Recovered, fa) }, nil
			})
			b.result(t, n, d, sigma, bound)
		}
	}
	b.printf("Theorem 6.1: O(dσ log(dσ) log n) bits — driven by d·σ, nearly flat in n.\n")
}
