package sosr

// Benchmark harness: every table and figure of the paper's evaluation has a
// regenerator here (see DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results). The paper is a theory
// paper, so its "evaluation" artifacts are Table 1 (the asymptotic protocol
// comparison under the relational-database parameterization) and Figure 1
// (the two-way-merge ambiguity witness); these benches measure the same
// quantities empirically — wire bytes, rounds, and wall time — plus one
// bench per supporting theorem.
//
// Custom metrics: wire-B (serialized bytes on the simulated channel),
// rounds, and for probabilistic structures a success-rate.

import (
	"fmt"
	"testing"

	"sosr/internal/core"
	"sosr/internal/estimator"
	"sosr/internal/forest"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/prng"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/transport"
	"sosr/internal/workload"
)

// table1Shape is the Table 1 regime: binary database rows dense in 1s, so
// h = Θ(u) and n = Θ(s·u); d ≤ s, h.
type table1Shape struct{ s, h int }

var table1Default = table1Shape{s: 64, h: 64}

func table1Instance(seed uint64, sh table1Shape, d int) (alice, bob [][]uint64, p core.Params) {
	db := workload.RandomDatabase(seed, sh.s, sh.h, 0.5, nil)
	flipped := workload.FlipBits(db, d, prng.New(seed^0xf11b))
	return flipped.SetsOfSets(), db.SetsOfSets(), core.Params{S: sh.s, H: sh.h, U: uint64(sh.h)}
}

// benchProtocol runs one Table 1 row for a protocol at difference d.
func benchProtocol(b *testing.B, d int, run func(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p core.Params) error) {
	alice, bob, p := table1Instance(uint64(d)*977+13, table1Default, d)
	coins := hashing.NewCoins(uint64(d) * 31)
	var bytes, rounds, fails int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := transport.New()
		if err := run(sess, coins.Sub("bench", i), alice, bob, p); err != nil {
			fails++
		}
		bytes += sess.TotalBytes()
		rounds += sess.Rounds()
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes)/float64(b.N), "wire-B")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds")
	b.ReportMetric(float64(fails)/float64(b.N), "failures")
}

// BenchmarkTable1 regenerates Table 1: the four SSRK protocols on the
// database regime across d. Expected shape (paper): communication ascending
// Naive > Nested > Cascade > MultiRound for large u and small d; time
// descending Naive < Nested-ish with MultiRound paying rounds instead.
func BenchmarkTable1(b *testing.B) {
	for _, d := range []int{2, 8, 32} {
		d := d
		b.Run(fmt.Sprintf("naive/d=%d", d), func(b *testing.B) {
			benchProtocol(b, d, func(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p core.Params) error {
				_, err := core.NaiveKnownD(sess, coins, alice, bob, p, core.DHat(d, p.S))
				return err
			})
		})
		b.Run(fmt.Sprintf("nested/d=%d", d), func(b *testing.B) {
			benchProtocol(b, d, func(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p core.Params) error {
				_, err := core.NestedKnownD(sess, coins, alice, bob, p, d, core.DHat(d, p.S))
				return err
			})
		})
		b.Run(fmt.Sprintf("cascade/d=%d", d), func(b *testing.B) {
			benchProtocol(b, d, func(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p core.Params) error {
				_, err := core.CascadeKnownD(sess, coins, alice, bob, p, d)
				return err
			})
		})
		b.Run(fmt.Sprintf("multiround/d=%d", d), func(b *testing.B) {
			benchProtocol(b, d, func(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p core.Params) error {
				_, err := core.MultiRoundKnownD(sess, coins, alice, bob, p, d)
				return err
			})
		})
	}
}

// BenchmarkFigure1 regenerates Figure 1: exhaustive witness search over
// 5-vertex graph pairs.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if w, _ := FindFigure1Example(5); w == nil {
			b.Fatal("no witness")
		}
	}
}

// BenchmarkIBLTThreshold (E3) measures Theorem 2.1's decode threshold:
// success rate of decoding d keys from CellsFor(d) cells.
func BenchmarkIBLTThreshold(b *testing.B) {
	for _, d := range []int{8, 64, 512} {
		d := d
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			src := prng.New(uint64(d))
			success := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := iblt.NewUint64(iblt.CellsFor(d), 0, src.Uint64())
				for k := 0; k < d; k++ {
					t.InsertUint64(src.Uint64())
				}
				if _, _, err := t.Decode(); err == nil {
					success++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(success)/float64(b.N), "success-rate")
			b.ReportMetric(float64(iblt.SerializedSizeFor(iblt.CellsFor(d), 8, 0)), "wire-B")
		})
	}
}

// BenchmarkSetReconciliation (E4) compares Corollary 2.2 (IBLT) and
// Theorem 2.3 (characteristic polynomial) on n=2^14 sets.
func BenchmarkSetReconciliation(b *testing.B) {
	const n = 1 << 14
	for _, d := range []int{4, 32, 256} {
		d := d
		alice, bob := setPair(uint64(d), n, d)
		b.Run(fmt.Sprintf("iblt/d=%d", d), func(b *testing.B) {
			coins := hashing.NewCoins(uint64(d))
			var bytes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := transport.New()
				if _, err := setrecon.IBLTKnownD(sess, coins, alice, bob, d); err != nil {
					b.Fatal(err)
				}
				bytes += sess.TotalBytes()
			}
			b.StopTimer()
			b.ReportMetric(float64(bytes)/float64(b.N), "wire-B")
		})
		if d <= 32 { // cubic root-finding: keep the sweep sensible
			b.Run(fmt.Sprintf("charpoly/d=%d", d), func(b *testing.B) {
				coins := hashing.NewCoins(uint64(d))
				var bytes int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sess := transport.New()
					if _, err := setrecon.CharPoly(sess, coins, alice, bob, d); err != nil {
						b.Fatal(err)
					}
					bytes += sess.TotalBytes()
				}
				b.StopTimer()
				b.ReportMetric(float64(bytes)/float64(b.N), "wire-B")
			})
		}
	}
}

func setPair(seed uint64, n, d int) (alice, bob []uint64) {
	src := prng.New(seed)
	seen := map[uint64]bool{}
	next := func() uint64 {
		for {
			x := src.Uint64() % (1 << 59)
			if !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	for i := 0; i < n; i++ {
		x := next()
		alice = append(alice, x)
		bob = append(bob, x)
	}
	for i := 0; i < d; i++ {
		if i%2 == 0 {
			alice = append(alice, next())
		} else {
			bob = append(bob, next())
		}
	}
	return setutil.Canonical(alice), setutil.Canonical(bob)
}

// BenchmarkEstimator (E5) compares the paper's Theorem 3.1 estimator with
// the strata estimator of [14]: bytes and update+query time.
func BenchmarkEstimator(b *testing.B) {
	const d = 256
	b.Run("l0", func(b *testing.B) {
		e := estimator.New(estimator.Params{}, 1)
		b.ReportMetric(float64(e.SerializedSize()), "wire-B")
		src := prng.New(2)
		for i := 0; i < b.N; i++ {
			ea := estimator.New(estimator.Params{}, 1)
			eb := estimator.New(estimator.Params{}, 1)
			for k := 0; k < d; k++ {
				ea.Add(src.Uint64(), estimator.SideA)
				eb.Add(src.Uint64(), estimator.SideB)
			}
			if err := ea.Merge(eb); err != nil {
				b.Fatal(err)
			}
			_ = ea.Estimate()
		}
	})
	b.Run("strata", func(b *testing.B) {
		e := estimator.NewStrata(32, 0, 1)
		b.ReportMetric(float64(e.SerializedSize()), "wire-B")
		src := prng.New(2)
		for i := 0; i < b.N; i++ {
			sa := estimator.NewStrata(32, 0, 1)
			sb := estimator.NewStrata(32, 0, 1)
			for k := 0; k < d; k++ {
				sa.Add(src.Uint64(), estimator.SideA)
				sb.Add(src.Uint64(), estimator.SideB)
			}
			if err := sa.Merge(sb); err != nil {
				b.Fatal(err)
			}
			_ = sa.Estimate()
		}
	})
}

// BenchmarkUnknownD (E9) measures the doubling variants (Corollaries 3.6 and
// 3.8) and the 4-round Theorem 3.10 protocol: rounds traded for bytes.
func BenchmarkUnknownD(b *testing.B) {
	const d = 12
	alice, bob, p := table1Instance(991, table1Default, d)
	cases := map[string]func(sess *transport.Session, coins hashing.Coins) error{
		"nested-doubling": func(sess *transport.Session, coins hashing.Coins) error {
			_, err := core.NestedUnknownD(sess, coins, alice, bob, p)
			return err
		},
		"cascade-doubling": func(sess *transport.Session, coins hashing.Coins) error {
			_, err := core.CascadeUnknownD(sess, coins, alice, bob, p)
			return err
		},
		"multiround-4round": func(sess *transport.Session, coins hashing.Coins) error {
			_, err := core.MultiRoundUnknownD(sess, coins, alice, bob, p)
			return err
		},
	}
	for name, run := range cases {
		run := run
		b.Run(name, func(b *testing.B) {
			coins := hashing.NewCoins(7)
			var bytes, rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := transport.New()
				if err := run(sess, coins.Sub("i", i)); err != nil {
					b.Fatal(err)
				}
				bytes += sess.TotalBytes()
				rounds += sess.Rounds()
			}
			b.StopTimer()
			b.ReportMetric(float64(bytes)/float64(b.N), "wire-B")
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds")
		})
	}
}

// BenchmarkDegreeOrdering (E11) is Theorem 5.2 on planted separated graphs.
func BenchmarkDegreeOrdering(b *testing.B) {
	for _, n := range []int{480, 960} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := prng.New(uint64(n))
			d := 2
			g, h, err := graphrecon.PlantedSeparated(n, d, 0.4, src)
			if err != nil {
				b.Fatal(err)
			}
			ga, _ := graphPerturbInternal(g, 1, src)
			gb, _ := graphPerturbInternal(g, 1, src)
			coins := hashing.NewCoins(uint64(n) + 5)
			var bytes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := transport.New()
				if _, _, err := graphrecon.DegreeOrderingRecon(sess, coins, ga, gb,
					graphrecon.DegreeOrderParams{H: h, D: d}); err != nil {
					b.Fatal(err)
				}
				bytes += sess.TotalBytes()
			}
			b.StopTimer()
			b.ReportMetric(float64(bytes)/float64(b.N), "wire-B")
			b.ReportMetric(float64(ga.EdgeCount()*8), "raw-edges-B")
		})
	}
}

// BenchmarkDegreeNeighborhood (E12) is Theorem 5.6 on honest G(n, 1/2).
func BenchmarkDegreeNeighborhood(b *testing.B) {
	src := prng.New(9)
	n, m, d := 128, 96, 1
	var base = graphGnpDisjoint(b, n, 0.5, m, 8*d+1, src)
	ga, _ := graphPerturbInternal(base, 1, src)
	coins := hashing.NewCoins(77)
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := transport.New()
		if _, _, err := graphrecon.NeighborhoodRecon(sess, coins, ga, base,
			graphrecon.NeighborhoodParams{M: m, D: d}); err != nil {
			b.Fatal(err)
		}
		bytes += sess.TotalBytes()
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes)/float64(b.N), "wire-B")
}

// BenchmarkForest (E13) is Theorem 6.1 across forest sizes.
func BenchmarkForest(b *testing.B) {
	for _, n := range []int{200, 1000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := prng.New(uint64(n))
			fa := forest.Random(n, 0.2, src)
			fb := forest.Perturb(fa, 3, src)
			sigma := fa.Depth()
			if s := fb.Depth(); s > sigma {
				sigma = s
			}
			coins := hashing.NewCoins(uint64(n) * 3)
			var bytes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := transport.New()
				if _, _, err := forest.Recon(sess, coins, fa, fb,
					forest.ReconParams{Sigma: sigma, D: 3}); err != nil {
					b.Fatal(err)
				}
				bytes += sess.TotalBytes()
			}
			b.StopTimer()
			b.ReportMetric(float64(bytes)/float64(b.N), "wire-B")
		})
	}
}

// BenchmarkPolyGraph (E10) is the Theorem 4.3 tiny-graph protocol.
func BenchmarkPolyGraph(b *testing.B) {
	src := prng.New(4)
	base := graphGnpInternal(6, 0.5, src)
	gb, _ := graphPerturbInternal(base, 2, src)
	coins := hashing.NewCoins(3)
	for i := 0; i < b.N; i++ {
		msg, err := graphrecon.PolyAlice(coins, base, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := graphrecon.PolyApply(gb, 2, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiset (E14) is §3.4 multiset reconciliation.
func BenchmarkMultiset(b *testing.B) {
	src := prng.New(8)
	var alice, bob []uint64
	for i := 0; i < 2000; i++ {
		x := src.Uint64() % (1 << 40)
		reps := 1 + src.Intn(3)
		for r := 0; r < reps; r++ {
			alice = append(alice, x)
			bob = append(bob, x)
		}
	}
	for i := 0; i < 8; i++ {
		alice = append(alice, src.Uint64()%(1<<40))
	}
	coins := hashing.NewCoins(5)
	for i := 0; i < b.N; i++ {
		sess := transport.New()
		if _, _, err := setrecon.MultisetKnownD(sess, coins, alice, bob, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossover (E7) sweeps d to expose the Nested-vs-Cascade
// communication crossover (Table 1's d-dependence).
func BenchmarkCrossover(b *testing.B) {
	for _, d := range []int{2, 8, 32, 64} {
		d := d
		for _, proto := range []string{"nested", "cascade"} {
			proto := proto
			b.Run(fmt.Sprintf("%s/d=%d", proto, d), func(b *testing.B) {
				alice, bob, p := table1Instance(uint64(d)*13, table1Shape{s: 96, h: 96}, d)
				coins := hashing.NewCoins(uint64(d))
				var bytes, fails int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sess := transport.New()
					var err error
					if proto == "nested" {
						_, err = core.NestedKnownD(sess, coins.Sub("i", i), alice, bob, p, d, core.DHat(d, p.S))
					} else {
						_, err = core.CascadeKnownD(sess, coins.Sub("i", i), alice, bob, p, d)
					}
					if err != nil {
						fails++ // 1/poly(d) failure probability by design
					}
					bytes += sess.TotalBytes()
				}
				b.StopTimer()
				b.ReportMetric(float64(bytes)/float64(b.N), "wire-B")
				b.ReportMetric(float64(fails)/float64(b.N), "failures")
			})
		}
	}
}
