// Command sosbench regenerates the paper's evaluation artifacts and the
// supporting experiments (README's "Dataset kinds" and "Package map" say where
// each protocol lives; PAPER.md names the paper whose Table 1, Figure 1 and §5
// graph results these reproduce):
//
//	sosbench -experiment table1      # Table 1: the four SSRK protocols
//	sosbench -experiment figure1     # Figure 1: ambiguous two-way merge
//	sosbench -experiment iblt        # E3: IBLT decode threshold sweep
//	sosbench -experiment estimator   # E5: Thm 3.1 estimator vs strata [14]
//	sosbench -experiment crossover   # E7: nested vs cascade over d
//	sosbench -experiment unknownd    # E9: unknown-d variants
//	sosbench -experiment graphs      # E11: degree-ordering reconciliation
//	sosbench -experiment separation  # E11b: honest G(n,p) separation rate
//	sosbench -experiment neighborhood# E12: degree-neighborhood scheme
//	sosbench -experiment forest      # E13: forest reconciliation
//	sosbench -experiment all         # everything
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sosr/internal/core"
	"sosr/internal/estimator"
	"sosr/internal/forest"
	"sosr/internal/graph"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/prng"
	"sosr/internal/transport"
	"sosr/internal/workload"
)

var (
	experiment = flag.String("experiment", "all", "which experiment to run (table1, figure1, iblt, estimator, crossover, unknownd, graphs, separation, neighborhood, forest, all)")
	trials     = flag.Int("trials", 5, "trials per configuration")
	seed       = flag.Uint64("seed", 1, "master seed")
	sFlag      = flag.Int("s", 48, "child sets per parent (Table 1 regime)")
	hFlag      = flag.Int("h", 16384, "columns / max child size (Table 1 regime; the paper's ordering needs large u)")
)

func main() {
	flag.Parse()
	// One list, in the order -experiment all runs it: the usage above names
	// exactly these.
	experiments := []struct {
		name string
		run  func()
	}{
		{"table1", table1}, {"figure1", figure1}, {"iblt", ibltThreshold}, {"estimator", estimatorCompare},
		{"crossover", crossover}, {"unknownd", unknownD}, {"graphs", graphs}, {"separation", separation},
		{"neighborhood", neighborhood}, {"forest", forests},
	}
	ran := false
	for _, e := range experiments {
		if *experiment == "all" {
			fmt.Printf("\n════ %s ════\n", e.name)
		} else if *experiment != e.name {
			continue
		}
		e.run()
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

type protoRun struct {
	name string
	run  func(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p core.Params, d int) error
}

var protocols = []protoRun{
	{"naive (Thm 3.3)", func(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p core.Params, d int) error {
		_, err := core.NaiveKnownD(sess, coins, alice, bob, p, core.DHat(d, p.S))
		return err
	}},
	{"nested (Thm 3.5)", func(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p core.Params, d int) error {
		_, err := core.NestedKnownD(sess, coins, alice, bob, p, d, core.DHat(d, p.S))
		return err
	}},
	{"cascade (Thm 3.7)", func(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p core.Params, d int) error {
		_, err := core.CascadeKnownD(sess, coins, alice, bob, p, d)
		return err
	}},
	{"multiround (Thm 3.9)", func(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p core.Params, d int) error {
		_, err := core.MultiRoundKnownD(sess, coins, alice, bob, p, d)
		return err
	}},
}

// table1 regenerates Table 1 empirically on the binary-database regime.
func table1() {
	s, h := *sFlag, *hFlag
	fmt.Printf("Table 1 regime: s=%d child sets, h=u=%d columns, density 0.5, n≈%d\n", s, h, s*h/2)
	fmt.Printf("%-22s %6s %12s %10s %8s %8s\n", "protocol", "d", "wire bytes", "time", "rounds", "ok")
	for _, d := range []int{2, 4, 8, 16} {
		db := workload.RandomDatabase(*seed+uint64(d), s, h, 0.5, nil)
		flipped := workload.FlipBits(db, d, prng.New(*seed^uint64(d)*7))
		alice, bob := flipped.SetsOfSets(), db.SetsOfSets()
		p := core.Params{S: s, H: h, U: uint64(h)}
		for _, pr := range protocols {
			var bytes, rounds, ok int
			var elapsed time.Duration
			coins := hashing.NewCoins(*seed + uint64(d)*31)
			for t := 0; t < *trials; t++ {
				sess := transport.New()
				start := time.Now()
				err := pr.run(sess, coins.Sub("t", t), alice, bob, p, d)
				elapsed += time.Since(start)
				bytes += sess.TotalBytes()
				rounds += sess.Rounds()
				if err == nil {
					ok++
				}
			}
			fmt.Printf("%-22s %6d %12d %10v %8.1f %7d/%d\n",
				pr.name, d, bytes / *trials, (elapsed / time.Duration(*trials)).Round(time.Microsecond),
				float64(rounds)/float64(*trials), ok, *trials)
		}
	}
	fmt.Println("\nPaper's asserted ordering at large u, small d: communication naive > nested > cascade > multiround;")
	fmt.Println("computation naive < nested < cascade ≈ multiround (multiround pays rounds instead of bytes).")
}

// figure1 prints a concrete witness for Figure 1.
func figure1() {
	w := graph.FindFigure1Witness(5)
	if w == nil {
		fmt.Println("no witness found on 5 vertices")
		return
	}
	fmt.Println("Figure 1 witness (5 vertices): merging unlabeled graphs is ambiguous.")
	fmt.Printf("G1 edges: %v\n", w.G1.Edges())
	fmt.Printf("G2 edges: %v\n", w.G2.Edges())
	fmt.Printf("Merge X: add %v to G1 and %v to G2 -> isomorphic results %v\n", w.E1, w.F1, w.MergeX.Edges())
	fmt.Printf("Merge Y: add %v to G1 and %v to G2 -> isomorphic results %v\n", w.E2, w.F2, w.MergeY.Edges())
	fmt.Printf("X ≅ Y? %v  (the two valid merges disagree, so the union is ill-defined)\n",
		graph.TinyIsomorphic(w.MergeX, w.MergeY))
}

// ibltThreshold sweeps the cells-per-key ratio (E3, Theorem 2.1's constant).
func ibltThreshold() {
	fmt.Printf("%-8s %-10s %-12s\n", "d", "cells/d", "success")
	src := prng.New(*seed)
	for _, d := range []int{4, 16, 64, 256} {
		for _, ratio := range []float64{1.2, 1.5, 2.0, 2.5} {
			cells := int(float64(d) * ratio)
			success := 0
			const reps = 200
			for r := 0; r < reps; r++ {
				t := iblt.NewUint64(cells, 0, src.Uint64())
				for k := 0; k < d; k++ {
					t.InsertUint64(src.Uint64())
				}
				if _, _, err := t.Decode(); err == nil {
					success++
				}
			}
			fmt.Printf("%-8d %-10.1f %6.1f%%\n", d, ratio, 100*float64(success)/reps)
		}
	}
	fmt.Println("Theorem 2.1: an O(d)-cell table decodes d keys whp; the sweep locates the practical constant.")
}

// estimatorCompare measures accuracy and size of the two estimators (E5).
func estimatorCompare() {
	fmt.Printf("%-8s %-16s %-16s\n", "d", "l0 est (Thm 3.1)", "strata est [14]")
	src := prng.New(*seed + 3)
	for _, d := range []int{8, 64, 512, 4096} {
		var l0Sum, strataSum uint64
		for t := 0; t < *trials; t++ {
			e := estimator.New(estimator.Params{}, uint64(t))
			sa := estimator.NewStrata(32, 0, uint64(t))
			sb := estimator.NewStrata(32, 0, uint64(t))
			for k := 0; k < d; k++ {
				x := src.Uint64()
				side := estimator.SideA
				if k%2 == 1 {
					side = estimator.SideB
				}
				e.Add(x, side)
				if side == estimator.SideA {
					sa.Add(x, side)
				} else {
					sb.Add(x, side)
				}
			}
			_ = sa.Merge(sb)
			l0Sum += e.Estimate()
			strataSum += sa.Estimate()
		}
		fmt.Printf("%-8d %-16d %-16d\n", d, l0Sum/uint64(*trials), strataSum/uint64(*trials))
	}
	e := estimator.New(estimator.Params{}, 1)
	st := estimator.NewStrata(32, 0, 1)
	fmt.Printf("sketch sizes: l0=%dB strata=%dB (the paper's estimator drops the O(log u) strata factor)\n",
		e.SerializedSize(), st.SerializedSize())
}

// crossover sweeps d for nested vs cascade (E7).
func crossover() {
	s, h := 96, 96
	fmt.Printf("%-8s %-14s %-14s\n", "d", "nested bytes", "cascade bytes")
	for _, d := range []int{2, 4, 8, 16, 32, 64} {
		db := workload.RandomDatabase(*seed+uint64(d), s, h, 0.5, nil)
		flipped := workload.FlipBits(db, d, prng.New(*seed+uint64(d)*3))
		alice, bob := flipped.SetsOfSets(), db.SetsOfSets()
		p := core.Params{S: s, H: h, U: uint64(h)}
		coins := hashing.NewCoins(*seed + uint64(d))
		nested := transport.New()
		_, errN := core.NestedKnownD(nested, coins.Sub("n", 0), alice, bob, p, d, core.DHat(d, p.S))
		cascade := transport.New()
		_, errC := core.CascadeKnownD(cascade, coins.Sub("c", 0), alice, bob, p, d)
		mark := ""
		if errN != nil || errC != nil {
			mark = " (retry needed)"
		}
		fmt.Printf("%-8d %-14d %-14d%s\n", d, nested.TotalBytes(), cascade.TotalBytes(), mark)
	}
	fmt.Println("Theorem 3.5 is O(d̂·d log u); Theorem 3.7 is O(d log d log u): cascade wins once d is large.")
}

// unknownD compares the unknown-d strategies (E9).
func unknownD() {
	s, h, d := *sFlag, *hFlag, 12
	db := workload.RandomDatabase(*seed+99, s, h, 0.5, nil)
	flipped := workload.FlipBits(db, d, prng.New(*seed+100))
	alice, bob := flipped.SetsOfSets(), db.SetsOfSets()
	p := core.Params{S: s, H: h, U: uint64(h)}
	fmt.Printf("true d=%d (hidden from protocols)\n", d)
	fmt.Printf("%-26s %10s %8s\n", "variant", "bytes", "rounds")
	cases := []struct {
		name string
		run  func(sess *transport.Session, coins hashing.Coins) error
	}{
		{"nested doubling (Cor 3.6)", func(sess *transport.Session, c hashing.Coins) error {
			_, err := core.NestedUnknownD(sess, c, alice, bob, p)
			return err
		}},
		{"cascade doubling (Cor 3.8)", func(sess *transport.Session, c hashing.Coins) error {
			_, err := core.CascadeUnknownD(sess, c, alice, bob, p)
			return err
		}},
		{"multiround 4-round (Thm 3.10)", func(sess *transport.Session, c hashing.Coins) error {
			_, err := core.MultiRoundUnknownD(sess, c, alice, bob, p)
			return err
		}},
	}
	for _, cse := range cases {
		sess := transport.New()
		if err := cse.run(sess, hashing.NewCoins(*seed+7)); err != nil {
			fmt.Printf("%-26s failed: %v\n", cse.name, err)
			continue
		}
		fmt.Printf("%-26s %10d %8d\n", cse.name, sess.TotalBytes(), sess.Rounds())
	}
}

// graphs runs the degree-ordering scheme on planted separated graphs (E11).
func graphs() {
	fmt.Printf("%-8s %-6s %-6s %12s %14s %10s\n", "n", "d", "h", "wire bytes", "raw edges B", "iso ok")
	for _, n := range []int{480, 960} {
		d := 2
		src := prng.New(*seed + uint64(n))
		g, h, err := graphrecon.PlantedSeparated(n, d, 0.4, src)
		if err != nil {
			fmt.Printf("n=%d: %v\n", n, err)
			continue
		}
		ga, _ := graph.Perturb(g, 1, src)
		gb, _ := graph.Perturb(g, 1, src)
		sess := transport.New()
		rec, _, err := graphrecon.DegreeOrderingRecon(sess, hashing.NewCoins(*seed+2), ga, gb,
			graphrecon.DegreeOrderParams{H: h, D: d})
		ok := err == nil && graph.IsIsomorphic(rec, ga)
		fmt.Printf("%-8d %-6d %-6d %12d %14d %10v\n", n, d, h, sess.TotalBytes(), ga.EdgeCount()*8, ok)
	}
	fmt.Println("Theorem 5.2: O(d(log d log h + log n)) bits — constant in n, far below shipping the edges.")
}

// separation measures how often honest G(n, p) is separated (E11b): the gap
// between Theorem 5.3's asymptotics and laptop-scale n.
func separation() {
	src := prng.New(*seed + 5)
	fmt.Printf("%-8s %-8s %-22s\n", "n", "p", "(h,2,3)-separated rate")
	for _, n := range []int{128, 256, 512, 1024} {
		rate, bestH := graphrecon.SeparationRate(n, 0.5, 2, 3, 32, 10, src)
		fmt.Printf("%-8d %-8.2f %6.0f%% (best h=%d)\n", n, 0.5, rate*100, bestH)
	}
	fmt.Println("Theorem 5.3 needs n far beyond laptop scale; the degree-ordering experiments therefore")
	fmt.Println("use planted separated graphs (sosr.PlantedSeparatedGraph; the paper's §5, see PAPER.md).")
}

// neighborhood runs the §5.2 scheme on honest G(n, 1/2) (E12).
func neighborhood() {
	src := prng.New(*seed + 6)
	fmt.Printf("%-8s %-10s %-12s %12s %10s\n", "n", "disjoint", "supports d", "wire bytes", "iso ok")
	for _, n := range []int{128, 256} {
		m := n * 3 / 4
		g := graph.Gnp(n, 0.5, src)
		k := graphrecon.MinNeighborhoodDisjointness(g, m)
		d := (k - 1) / 8
		if d < 1 {
			fmt.Printf("%-8d %-10d insufficient disjointness\n", n, k)
			continue
		}
		if d > 2 {
			d = 2
		}
		ga, _ := graph.Perturb(g, d/2+d%2, src)
		gb, _ := graph.Perturb(g, d/2, src)
		sess := transport.New()
		rec, _, err := graphrecon.NeighborhoodRecon(sess, hashing.NewCoins(*seed+8), ga, gb,
			graphrecon.NeighborhoodParams{M: m, D: d})
		ok := err == nil && graph.IsIsomorphic(rec, ga)
		fmt.Printf("%-8d %-10d %-12d %12d %10v\n", n, k, d, sess.TotalBytes(), ok)
	}
	fmt.Println("Theorem 5.6 costs ~O(dpn·polylog) bits — heavier than §5.1 but valid at honest laptop-scale n.")
}

// forests sweeps forest reconciliation (E13).
func forests() {
	src := prng.New(*seed + 7)
	fmt.Printf("%-8s %-6s %-6s %12s %10s\n", "n", "d", "σ", "wire bytes", "iso ok")
	for _, n := range []int{200, 600, 1800} {
		d := 3
		fa := forest.Random(n, 0.2, src)
		fb := forest.Perturb(fa, d, src)
		sigma := fa.Depth()
		if s := fb.Depth(); s > sigma {
			sigma = s
		}
		sess := transport.New()
		rec, _, err := forest.Recon(sess, hashing.NewCoins(*seed+9), fa, fb, forest.ReconParams{Sigma: sigma, D: d})
		ok := err == nil && forest.IsIsomorphic(rec, fa)
		fmt.Printf("%-8d %-6d %-6d %12d %10v\n", n, d, sigma, sess.TotalBytes(), ok)
	}
	fmt.Println("Theorem 6.1: O(dσ log(dσ) log n) bits — driven by d·σ, nearly flat in n.")
}
