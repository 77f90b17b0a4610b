package field

import (
	"testing"

	"sosr/internal/prng"
)

func BenchmarkMul(b *testing.B) {
	src := prng.New(1)
	x, y := src.Uint64()%P, src.Uint64()%P
	for i := 0; i < b.N; i++ {
		x = Mul(x, y)
	}
	sink = x
}

func BenchmarkInv(b *testing.B) {
	src := prng.New(2)
	x := src.Uint64()%(P-1) + 1
	for i := 0; i < b.N; i++ {
		x = Inv(x) + 1
	}
	sink = x
}

func BenchmarkEvalProduct1024(b *testing.B) {
	src := prng.New(3)
	set := make([]uint64, 1024)
	for i := range set {
		set[i] = src.Uint64() % (1 << 59)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = EvalProduct(set, EvalPoint(i%16))
	}
}

func BenchmarkRoots32(b *testing.B) {
	src := prng.New(4)
	roots := make([]uint64, 32)
	seen := map[uint64]bool{}
	for i := range roots {
		r := src.Uint64() % (1 << 59)
		for seen[r] {
			r = src.Uint64() % (1 << 59)
		}
		seen[r] = true
		roots[i] = r
	}
	p := FromRoots(roots)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Roots(p, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoverRational16(b *testing.B) {
	num := FromRoots([]uint64{3, 5, 9, 11, 20, 21, 22, 23})
	den := FromRoots([]uint64{100, 101, 102, 103, 104, 105, 106, 107})
	var points, ratios []uint64
	for i := 0; i < 16; i++ {
		z := EvalPoint(i)
		points = append(points, z)
		ratios = append(ratios, Mul(horner(num, z), Inv(horner(den, z))))
	}
	var s Solver
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.RecoverRational(points, ratios, 8, 8); err != nil {
			b.Fatal(err)
		}
	}
}

var sink uint64
