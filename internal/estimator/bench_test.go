package estimator

import (
	"testing"

	"sosr/internal/prng"
)

func BenchmarkAdd(b *testing.B) {
	e := New(Params{}, 1)
	src := prng.New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Add(src.Uint64(), SideA)
	}
}

func BenchmarkMerge(b *testing.B) {
	// The Appendix A claim: merging is word-wise addition plus a mask, here
	// straight from the peer's encoding as every protocol merges.
	x := New(Params{}, 3)
	y := New(Params{}, 3)
	src := prng.New(4)
	for i := 0; i < 1000; i++ {
		x.Add(src.Uint64(), SideA)
		y.Add(src.Uint64(), SideB)
	}
	enc := y.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.MergeMarshaled(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimate(b *testing.B) {
	e := New(Params{}, 5)
	src := prng.New(6)
	for i := 0; i < 4096; i++ {
		e.Add(src.Uint64(), SideA)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Estimate()
	}
}

func BenchmarkStrataAdd(b *testing.B) {
	s := NewStrata(32, 0, 7)
	src := prng.New(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(src.Uint64(), SideA)
	}
}

func BenchmarkStrataEstimate(b *testing.B) {
	s := NewStrata(32, 0, 9)
	src := prng.New(10)
	for i := 0; i < 512; i++ {
		s.Add(src.Uint64(), Side(1+i%2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Estimate()
	}
}
