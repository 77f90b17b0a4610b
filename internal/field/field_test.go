package field

import (
	"math/big"
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

func TestPolyEvalHorner(t *testing.T) {
	// p(x) = 3 + 2x + x^2 at x=5 -> 3 + 10 + 25 = 38.
	p := Poly{3, 2, 1}
	if got := p.Eval(5); got != 38 {
		t.Fatalf("eval = %d, want 38", got)
	}
}

func TestPolyArithmetic(t *testing.T) {
	p := Poly{1, 2, 3}
	q := Poly{4, 5}
	sum := AddPoly(p, q)
	if sum.Eval(7) != Add(p.Eval(7), q.Eval(7)) {
		t.Fatal("AddPoly mismatch")
	}
	prod := MulPoly(p, q)
	if prod.Eval(7) != Mul(p.Eval(7), q.Eval(7)) {
		t.Fatal("MulPoly mismatch")
	}
	diff := SubPoly(p, q)
	if diff.Eval(7) != Sub(p.Eval(7), q.Eval(7)) {
		t.Fatal("SubPoly mismatch")
	}
}

func TestPolyDivMod(t *testing.T) {
	src := prng.New(4)
	for trial := 0; trial < 100; trial++ {
		p := randPoly(src, 1+src.Intn(8))
		q := randPoly(src, 1+src.Intn(4))
		if q.IsZero() {
			continue
		}
		quo, rem := DivMod(p, q)
		// p == quo*q + rem and deg rem < deg q.
		back := AddPoly(MulPoly(quo, q), rem)
		if !polyEqual(back, p.Normalize()) {
			t.Fatalf("divmod identity failed: p=%v q=%v quo=%v rem=%v", p, q, quo, rem)
		}
		if rem.Degree() >= q.Degree() && !rem.IsZero() {
			t.Fatalf("remainder degree %d >= divisor degree %d", rem.Degree(), q.Degree())
		}
	}
}

func TestGCD(t *testing.T) {
	// gcd((x-1)(x-2), (x-2)(x-3)) = (x-2).
	a := FromRoots([]uint64{1, 2})
	b := FromRoots([]uint64{2, 3})
	g := GCD(a, b)
	want := FromRoots([]uint64{2})
	if !polyEqual(g, want) {
		t.Fatalf("gcd = %v, want %v", g, want)
	}
}

func TestFromRootsAndEvalProduct(t *testing.T) {
	roots := []uint64{10, 20, 30, 40}
	p := FromRoots(roots)
	if p.Degree() != 4 {
		t.Fatalf("degree = %d", p.Degree())
	}
	for _, r := range roots {
		if p.Eval(r) != 0 {
			t.Fatalf("p(%d) != 0", r)
		}
	}
	for x := uint64(100); x < 110; x++ {
		if p.Eval(x) != EvalProduct(roots, x) {
			t.Fatalf("EvalProduct mismatch at %d", x)
		}
	}
}

func TestDerivative(t *testing.T) {
	// (x^3 + 2x)' = 3x^2 + 2.
	p := Poly{0, 2, 0, 1}
	d := p.Derivative()
	want := Poly{2, 0, 3}
	if !polyEqual(d, want) {
		t.Fatalf("derivative = %v", d)
	}
}

func TestPowMod(t *testing.T) {
	m := FromRoots([]uint64{7, 9})
	// x^(P) mod m should equal x mod m by Fermat on the roots... verify via
	// evaluation at the roots: (r)^P = r.
	xp := PowMod(Poly{0, 1}, P, m)
	for _, r := range []uint64{7, 9} {
		if xp.Eval(r) != r {
			t.Fatalf("x^P(r) = %d, want %d", xp.Eval(r), r)
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
	p := MulPoly(FromRoots([]uint64{1}), FromRoots([]uint64{1}))
	if _, err := Roots(p, 1); err == nil {
		t.Fatal("expected ErrNotSplitting for repeated root")
	}
}

func TestSolveLinearSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  => x = 1, y = 3.
	mat := [][]uint64{{2, 1}, {1, 3}}
	rhs := []uint64{5, 10}
	sol, ok := SolveLinearSystem(mat, rhs)
	if !ok || sol[0] != 1 || sol[1] != 3 {
		t.Fatalf("sol = %v ok=%v", sol, ok)
	}
}

func TestSolveLinearSystemInconsistent(t *testing.T) {
	mat := [][]uint64{{1, 1}, {2, 2}}
	rhs := []uint64{1, 3}
	if _, ok := SolveLinearSystem(mat, rhs); ok {
		t.Fatal("expected inconsistency")
	}
}

func TestSolveLinearSystemUnderdetermined(t *testing.T) {
	// x + y = 4 with free y: y = 0, x = 4.
	mat := [][]uint64{{1, 1}}
	rhs := []uint64{4}
	sol, ok := SolveLinearSystem(mat, rhs)
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
		ratios = append(ratios, Mul(num.Eval(z), Inv(den.Eval(z))))
	}
	gotN, gotD, err := RecoverRational(points, ratios, 2, 1)
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
		ratios = append(ratios, Mul(num.Eval(z), Inv(den.Eval(z))))
	}
	gotN, gotD, err := RecoverRational(points, ratios, 4, 4)
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

func randPoly(src *prng.Source, deg int) Poly {
	p := make(Poly, deg+1)
	for i := range p {
		p[i] = src.Uint64() % P
	}
	return p.Normalize()
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
// the allocating DivMod/MulPoly it replaced, over bases longer than, equal to
// and shorter than the modulus, and a non-monic modulus.
func TestPowModMatchesRepeatedMultiplication(t *testing.T) {
	m := FromRoots([]uint64{3, 11, 500, 1 << 40, 77}).Scale(9)
	for _, base := range []Poly{{5}, {4, 1}, {1, 2, 3, 4, 5}, {9, 8, 7, 6, 5, 4, 3, 2}} {
		want := Poly{1}
		for e := uint64(0); e < 40; e++ {
			if got := PowMod(base, e, m); !polyEqual(got, want) {
				t.Fatalf("PowMod(%v, %d) = %v, want %v", base, e, got, want)
			}
			want = Mod(MulPoly(want, base), m)
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
	before := p.Clone()
	if _, err := Roots(p, 3); err != nil {
		t.Fatal(err)
	}
	if !polyEqual(p, before) {
		t.Fatalf("Roots modified its input: %v", p)
	}
}
