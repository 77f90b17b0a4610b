package sosr

// Ablation benchmarks for the design choices DESIGN.md calls out: the IBLT
// hash count k, the cell-count constant, the cascade's level structure vs a
// single-level nested table, estimator parameterization, and the naive
// protocol's bitmap-vs-list encoding switch.

import (
	"fmt"
	"testing"

	"sosr/internal/core"
	"sosr/internal/estimator"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/prng"
	"sosr/internal/transport"
)

// BenchmarkAblationIBLTHashCount sweeps k (hash functions per key): k=4 is
// the default; k=3 peels at lower density but fails more at small sizes,
// k=5 costs more updates for little gain.
func BenchmarkAblationIBLTHashCount(b *testing.B) {
	const d = 64
	for _, k := range []int{3, 4, 5} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			src := prng.New(uint64(k))
			success := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := iblt.NewUint64(iblt.CellsFor(d), k, src.Uint64())
				for j := 0; j < d; j++ {
					t.InsertUint64(src.Uint64())
				}
				if _, _, err := t.Decode(); err == nil {
					success++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(success)/float64(b.N), "success-rate")
		})
	}
}

// BenchmarkAblationIBLTCells sweeps the cells-per-difference constant that
// CellsFor fixes at 2.0: the wire-bytes vs success-rate trade (E3's table in
// benchmark form).
func BenchmarkAblationIBLTCells(b *testing.B) {
	const d = 64
	for _, ratio := range []float64{1.3, 1.6, 2.0, 3.0} {
		ratio := ratio
		b.Run(fmt.Sprintf("ratio=%.1f", ratio), func(b *testing.B) {
			src := prng.New(7)
			cells := int(float64(d) * ratio)
			success := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := iblt.NewUint64(cells, 0, src.Uint64())
				for j := 0; j < d; j++ {
					t.InsertUint64(src.Uint64())
				}
				if _, _, err := t.Decode(); err == nil {
					success++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(success)/float64(b.N), "success-rate")
			b.ReportMetric(float64(iblt.SerializedSizeFor(cells, 8, 0)), "wire-B")
		})
	}
}

// BenchmarkAblationEstimatorParams sweeps sketch parameters: replica count
// (median amplification) and bucket count per subroutine.
func BenchmarkAblationEstimatorParams(b *testing.B) {
	const d = 512
	configs := []estimator.Params{
		{Replicas: 1, Buckets: 63},
		{Replicas: 3, Buckets: 63},
		{Replicas: 5, Buckets: 63},
		{Replicas: 3, Buckets: 126},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(fmt.Sprintf("rep=%d/buckets=%d", cfg.Replicas, cfg.Buckets), func(b *testing.B) {
			src := prng.New(3)
			var errSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := estimator.New(cfg, uint64(i))
				for k := 0; k < d; k++ {
					side := estimator.SideA
					if k%2 == 1 {
						side = estimator.SideB
					}
					e.Add(src.Uint64(), side)
				}
				est := float64(e.Estimate())
				ratio := est / d
				if ratio < 1 {
					ratio = 1 / ratio
				}
				errSum += ratio
			}
			b.StopTimer()
			b.ReportMetric(errSum/float64(b.N), "geo-error-x")
			b.ReportMetric(float64(estimator.New(cfg, 0).SerializedSize()), "wire-B")
		})
	}
}

// BenchmarkAblationCascadeVsSingleLevel isolates what the cascade buys: the
// same instance run through Algorithm 2 and through Algorithm 1 with the
// cascade's total budget, at growing d.
func BenchmarkAblationCascadeVsSingleLevel(b *testing.B) {
	for _, d := range []int{8, 32} {
		d := d
		alice, bob, p := table1Instance(uint64(d)*7+5, table1Shape{s: 64, h: 64}, d)
		for _, mode := range []string{"cascade", "single-level"} {
			mode := mode
			b.Run(fmt.Sprintf("%s/d=%d", mode, d), func(b *testing.B) {
				coins := hashing.NewCoins(uint64(d) + 77)
				var bytes, fails int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sess := transport.New()
					var err error
					if mode == "cascade" {
						_, err = core.CascadeKnownD(sess, coins.Sub("i", i), alice, bob, p, d)
					} else {
						_, err = core.NestedKnownD(sess, coins.Sub("i", i), alice, bob, p, d, core.DHat(d, p.S))
					}
					if err != nil {
						fails++ // protocols fail with probability 1/poly(d) by design
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

// BenchmarkAblationNaiveEncoding compares the naive protocol's two child
// encodings (bitmap vs element list) at the same instance shape, by varying
// only the declared universe.
func BenchmarkAblationNaiveEncoding(b *testing.B) {
	const d = 4
	for _, mode := range []string{"bitmap", "list"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			// 64-column rows; bitmap = 8B/child, list = 4+8·64B/child.
			alice, bob, p := table1Instance(11, table1Shape{s: 32, h: 64}, d)
			if mode == "list" {
				p.U = 1 << 40 // huge universe forces the list encoding
			}
			coins := hashing.NewCoins(13)
			var bytes, fails int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := transport.New()
				if _, err := core.NaiveKnownD(sess, coins.Sub("i", i), alice, bob, p, core.DHat(d, p.S)); err != nil {
					fails++
				}
				bytes += sess.TotalBytes()
			}
			b.StopTimer()
			b.ReportMetric(float64(bytes)/float64(b.N), "wire-B")
			b.ReportMetric(float64(fails)/float64(b.N), "failures")
		})
	}
}
