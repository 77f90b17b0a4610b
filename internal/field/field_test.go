package field

import (
	"math/big"
	"slices"
	"testing"
	"testing/quick"

	"sosr/internal/prng"
)

func TestAddSubNeg(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 2}, {P - 1, 1}, {P - 1, P - 1}, {12345, P - 12345},
	}
	for _, c := range cases {
		if got := Sub(Add(c.a, c.b), c.b); got != c.a {
			t.Errorf("Sub(Add(%d,%d),%d) = %d", c.a, c.b, c.b, got)
		}
		if got := Add(c.a, Neg(c.a)); got != 0 {
			t.Errorf("a + (-a) = %d for a=%d", got, c.a)
		}
	}
}

func TestMulMatchesBigInt(t *testing.T) {
	src := prng.New(1)
	pBig := new(big.Int).SetUint64(P)
	for i := 0; i < 2000; i++ {
		a := src.Uint64() % P
		b := src.Uint64() % P
		got := Mul(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, pBig)
		if got != want.Uint64() {
			t.Fatalf("Mul(%d,%d) = %d, want %s", a, b, got, want)
		}
	}
}

func TestMulProperties(t *testing.T) {
	f := func(a, b, c uint64) bool {
		a, b, c = a%P, b%P, c%P
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		// Distributivity.
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInv(t *testing.T) {
	src := prng.New(2)
	for i := 0; i < 200; i++ {
		a := src.Uint64()%(P-1) + 1
		if got := Mul(a, Inv(a)); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d", got, a)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestPow(t *testing.T) {
	if Pow(2, 61)%P != Reduce(2) { // 2^61 = 2*2^60; 2^61 mod (2^61-1) = 1... check directly
		// 2^61 ≡ 1 + 1 = 2? No: 2^61 = (2^61 - 1) + 1 ≡ 1.
	}
	if got := Pow(2, 61); got != 2 {
		// 2^61 mod (2^61-1): 2^61 = P + 1 ≡ 1? P = 2^61-1 so 2^61 = P+1 ≡ 1.
		if got != 1 {
			t.Fatalf("2^61 mod P = %d, want 1", got)
		}
	}
	if got := Pow(5, 0); got != 1 {
		t.Fatalf("5^0 = %d", got)
	}
	// Fermat: a^(P-1) = 1.
	src := prng.New(3)
	for i := 0; i < 20; i++ {
		a := src.Uint64()%(P-1) + 1
		if got := Pow(a, P-1); got != 1 {
			t.Fatalf("a^(P-1) = %d for a=%d", got, a)
		}
	}
}

func TestReduce(t *testing.T) {
	if Reduce(P) != 0 {
		t.Errorf("Reduce(P) = %d", Reduce(P))
	}
	if Reduce(P+5) != 5 {
		t.Errorf("Reduce(P+5) = %d", Reduce(P+5))
	}
	if Reduce(^uint64(0)) >= P {
		t.Errorf("Reduce(max) out of range")
	}
}

func TestPolyArithmetic(t *testing.T) {
	// mulMod at a root r of m is multiplication of the values at r.
	roots := []uint64{2, 9, 1 << 50}
	m := FromRoots(roots)
	var w polyWork
	w.size(3)
	p, q := Poly{1, 2, 3}, Poly{4, 5}
	got := make([]uint64, 3)
	w.mulMod(got, p, q, m[:3])
	for _, r := range roots {
		if horner(got, r) != Mul(horner(p, r), horner(q, r)) {
			t.Fatalf("p·q mod m at %d = %d, want %d", r, horner(got, r), Mul(horner(p, r), horner(q, r)))
		}
	}
}

func TestPolyDivMod(t *testing.T) {
	// divideInPlace leaves f = quo·g + rem with deg rem < deg g, checked by
	// evaluation.
	src := prng.New(4)
	for trial := 0; trial < 100; trial++ {
		g := FromRoots([]uint64{src.Uint64() % P, src.Uint64() % P, src.Uint64() % P}[:1+src.Intn(3)])
		f := make(Poly, len(g)+src.Intn(6))
		for i := range f {
			f[i] = src.Uint64() % P
		}
		div := slices.Clone(f)
		divideInPlace(div, g)
		dg := len(g) - 1
		rem, quo := div[:dg], div[dg:]
		for x := uint64(1); x < 4; x++ {
			if want := horner(f, x); Add(Mul(horner(quo, x), horner(g, x)), horner(rem, x)) != want {
				t.Fatalf("divmod identity failed: f=%v g=%v quo=%v rem=%v", f, g, quo, rem)
			}
		}
	}
}

func TestGCD(t *testing.T) {
	// gcd((x-1)(x-2), (x-2)(x-3)) = (x-2), and gcd((x-1)(x-2), 3(x-3)) = 1.
	var w polyWork
	w.size(2)
	a := FromRoots([]uint64{1, 2})
	for _, c := range []struct{ b, want Poly }{
		{FromRoots([]uint64{2, 3}), FromRoots([]uint64{2})},
		{FromRoots([]uint64{3}).Scale(3), Poly{1}},
	} {
		if g := w.gcd(a, c.b); !polyEqual(g, c.want) {
			t.Fatalf("gcd(%v, %v) = %v, want %v", a, c.b, g, c.want)
		}
	}
}

func TestFromRootsAndEvalProduct(t *testing.T) {
	roots := []uint64{10, 20, 30, 40}
	p := FromRoots(roots)
	if len(p) != 5 || p[4] != 1 {
		t.Fatalf("FromRoots = %v, want monic of degree 4", p)
	}
	for _, r := range roots {
		if horner(p, r) != 0 {
			t.Fatalf("p(%d) != 0", r)
		}
	}
	for x := uint64(100); x < 110; x++ {
		if horner(p, x) != EvalProduct(roots, x) {
			t.Fatalf("EvalProduct mismatch at %d", x)
		}
	}
}

func TestPowMod(t *testing.T) {
	// x^P ≡ x at every root by Fermat: verify x^P mod m by evaluation at the
	// roots of m.
	m := FromRoots([]uint64{7, 9})
	var w polyWork
	w.size(2)
	xp := make([]uint64, 2)
	w.powMod(xp, Poly{0, 1}, P, m[:2])
	for _, r := range []uint64{7, 9} {
		if horner(xp, r) != r {
			t.Fatalf("x^P(r) = %d, want %d", horner(xp, r), r)
		}
	}
}

func TestRootsSmall(t *testing.T) {
	for _, roots := range [][]uint64{
		{},
		{5},
		{5, 9},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{0, 1 << 59, 42},
	} {
		p := FromRoots(roots)
		if len(roots) == 0 {
			p = Poly{1}
		}
		got, err := Roots(p, 99)
		if err != nil {
			t.Fatalf("Roots(%v): %v", roots, err)
		}
		if !sameRootSet(got, roots) {
			t.Fatalf("Roots = %v, want %v", got, roots)
		}
	}
}

func TestRootsLarger(t *testing.T) {
	src := prng.New(5)
	seen := map[uint64]bool{}
	var roots []uint64
	for len(roots) < 60 {
		r := src.Uint64() % (1 << 60)
		if !seen[r] {
			seen[r] = true
			roots = append(roots, r)
		}
	}
	p := FromRoots(roots)
	got, err := Roots(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRootSet(got, roots) {
		t.Fatal("root set mismatch")
	}
}

func TestRootsRejectsNonSplitting(t *testing.T) {
	// x^2 + 1 may or may not split mod P; pick (x-1)^2 which has a repeated
	// root and must be rejected.
	p := FromRoots([]uint64{1, 1})
	if _, err := Roots(p, 1); err == nil {
		t.Fatal("expected ErrNotSplitting for repeated root")
	}
}

// solve runs solveFlat on a row-major system of len(rhs) rows and cols
// columns.
func solve(mat, rhs []uint64, cols int) ([]uint64, bool) {
	sol := make([]uint64, cols)
	return sol, solveFlat(mat, rhs, sol, make([]int, cols))
}

func TestSolveLinearSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  => x = 1, y = 3.
	sol, ok := solve([]uint64{2, 1, 1, 3}, []uint64{5, 10}, 2)
	if !ok || sol[0] != 1 || sol[1] != 3 {
		t.Fatalf("sol = %v ok=%v", sol, ok)
	}
}

func TestSolveLinearSystemInconsistent(t *testing.T) {
	if _, ok := solve([]uint64{1, 1, 2, 2}, []uint64{1, 3}, 2); ok {
		t.Fatal("expected inconsistency")
	}
}

func TestSolveLinearSystemUnderdetermined(t *testing.T) {
	// x + y = 4 with free y: y = 0, x = 4.
	sol, ok := solve([]uint64{1, 1}, []uint64{4}, 2)
	if !ok {
		t.Fatal("expected consistent")
	}
	if Add(sol[0], sol[1]) != 4 {
		t.Fatalf("solution %v does not satisfy equation", sol)
	}
}

func TestRecoverRationalExact(t *testing.T) {
	// num = (x-3)(x-5), den = (x-7).
	num := FromRoots([]uint64{3, 5})
	den := FromRoots([]uint64{7})
	var points, ratios []uint64
	for i := 0; i < 3; i++ {
		z := EvalPoint(i)
		points = append(points, z)
		ratios = append(ratios, Mul(horner(num, z), Inv(horner(den, z))))
	}
	gotN, gotD, err := new(Solver).RecoverRational(points, ratios, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !polyEqual(gotN, num) || !polyEqual(gotD, den) {
		t.Fatalf("got %v / %v", gotN, gotD)
	}
}

func TestRecoverRationalOverbounded(t *testing.T) {
	// True difference smaller than the caller's degree bound: the gcd
	// reduction must strip the common factor.
	num := FromRoots([]uint64{11})
	den := FromRoots([]uint64{13})
	var points, ratios []uint64
	for i := 0; i < 8; i++ {
		z := EvalPoint(i)
		points = append(points, z)
		ratios = append(ratios, Mul(horner(num, z), Inv(horner(den, z))))
	}
	gotN, gotD, err := new(Solver).RecoverRational(points, ratios, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !polyEqual(gotN, num) || !polyEqual(gotD, den) {
		t.Fatalf("got %v / %v, want reduced (x-11)/(x-13)", gotN, gotD)
	}
}

func TestEvalPointDisjointFromUniverse(t *testing.T) {
	if EvalPoint(0) <= (1<<60)-1 {
		t.Fatal("evaluation points overlap universe")
	}
	if EvalPoint(1000) >= P {
		t.Fatal("evaluation point exceeds field")
	}
}

// horner evaluates p at x, the oracle the field's kernels are checked
// against.
func horner(p Poly, x uint64) uint64 {
	acc := uint64(0)
	for i := len(p) - 1; i >= 0; i-- {
		acc = Add(Mul(acc, x), p[i])
	}
	return acc
}

func polyEqual(a, b Poly) bool {
	a, b = a.Normalize(), b.Normalize()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameRootSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[uint64]int{}
	for _, x := range a {
		m[x%P]++
	}
	for _, x := range b {
		m[x%P]--
	}
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestPowModMatchesRepeatedMultiplication checks the in-place kernel against
// repeated multiplication in evaluation form: for m with n distinct roots and r
// one of them, (b^e mod m)(r) = b(r)^e, and n such values fix a remainder of
// degree below n. Bases run shorter than and as long as the modulus.
func TestPowModMatchesRepeatedMultiplication(t *testing.T) {
	roots := []uint64{3, 11, 500, 1 << 40, 77}
	m := FromRoots(roots)
	n := len(roots)
	var w polyWork
	w.size(n)
	got := make([]uint64, n)
	for _, base := range []Poly{{5}, {4, 1}, {1, 2, 3, 4, 5}} {
		want := make([]uint64, n)
		for i, r := range roots {
			want[i] = horner(base, r)
		}
		for e := uint64(1); e < 40; e++ {
			w.powMod(got, base, e, m[:n])
			for i, r := range roots {
				if horner(got, r) != want[i] {
					t.Fatalf("(%v)^%d mod m at %d = %d, want %d", base, e, r, horner(got, r), want[i])
				}
				want[i] = Mul(want[i], horner(base, r))
			}
		}
	}
}

// TestRootsRejectsIrreducibleAndKeepsInput: x² − c for a non-residue c has no
// roots, and Roots never writes to the polynomial it was handed.
func TestRootsRejectsIrreducibleAndKeepsInput(t *testing.T) {
	c := uint64(2)
	for Pow(c, (P-1)/2) == 1 {
		c++
	}
	if _, err := Roots(Poly{Neg(c), 0, 1}, 3); err == nil {
		t.Fatalf("x^2 - %d reported as splitting", c)
	}
	p := FromRoots([]uint64{10, 20, 30, 40, 50})
	before := slices.Clone(p)
	if _, err := Roots(p, 3); err != nil {
		t.Fatal(err)
	}
	if !polyEqual(p, before) {
		t.Fatalf("Roots modified its input: %v", p)
	}
}
