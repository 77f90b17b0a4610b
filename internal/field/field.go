// Package field implements arithmetic over GF(p) with p = 2^61 - 1, dense
// univariate polynomials over that field, Gaussian elimination, rational
// function (Padé) recovery, and root extraction via Cantor–Zassenhaus
// equal-degree splitting.
//
// This is the substrate for the characteristic-polynomial set reconciliation
// of Minsky, Trachtenberg & Zippel (paper Thm 2.3): Alice evaluates her
// characteristic polynomial at reserved points; Bob interpolates the rational
// function χ_A/χ_B and factors numerator and denominator into linear terms.
//
// Set elements must lie in [0, 2^60) so the reserved evaluation points in
// [2^60, p) can never be roots of either characteristic polynomial, which
// preserves the paper's success-with-probability-1 guarantee.
package field

import (
	"errors"
	"math/bits"
)

// P is the field modulus, the Mersenne prime 2^61 - 1.
const P uint64 = (1 << 61) - 1

// EvalPointBase is the start of the reserved evaluation-point range.
// Protocol elements must be < EvalPointBase.
const EvalPointBase uint64 = 1 << 60

// Add returns (a + b) mod P. Inputs must be < P.
func Add(a, b uint64) uint64 {
	s := a + b
	if s >= P {
		s -= P
	}
	return s
}

// Sub returns (a - b) mod P. Inputs must be < P.
func Sub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + P - b
}

// Neg returns -a mod P.
func Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return P - a
}

// Mul returns (a * b) mod P using Mersenne folding. Inputs must be < P.
func Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo and 2^64 ≡ 2^3 (mod 2^61-1).
	r := (lo & P) + (lo >> 61) + hi*8
	r = (r & P) + (r >> 61)
	if r >= P {
		r -= P
	}
	return r
}

// Pow returns a^e mod P by square-and-multiply.
func Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := a % P
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a (a != 0) via Fermat's little
// theorem. It panics on a == 0, which always indicates a programming error in
// this codebase (division by zero in Gaussian elimination is guarded).
func Inv(a uint64) uint64 {
	if a%P == 0 {
		panic("field: inverse of zero")
	}
	return Pow(a, P-2)
}

// Reduce maps an arbitrary word into [0, P).
func Reduce(x uint64) uint64 {
	r := (x & P) + (x >> 61)
	if r >= P {
		r -= P
	}
	return r
}

// EvalPoint returns the i-th reserved evaluation point. Points are distinct
// for i < 2^60 and never collide with protocol elements.
func EvalPoint(i int) uint64 {
	return EvalPointBase + uint64(i)
}

// Poly is a dense polynomial over GF(P); Poly[i] is the coefficient of x^i.
// The zero polynomial is the empty (or all-zero) slice. All exported
// functions return normalized polynomials (no trailing zero coefficients).
type Poly []uint64

// Normalize strips trailing zero coefficients.
func (p Poly) Normalize() Poly {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.Normalize()) == 0 }

// Scale returns c * p.
func (p Poly) Scale(c uint64) Poly {
	out := make(Poly, len(p))
	for i, a := range p {
		out[i] = Mul(a, c)
	}
	return out.Normalize()
}

// Monic returns p scaled so its leading coefficient is 1 (zero stays zero).
func (p Poly) Monic() Poly {
	q := p.Normalize()
	if len(q) == 0 {
		return q
	}
	lead := q[len(q)-1]
	if lead == 1 {
		return q
	}
	return q.Scale(Inv(lead))
}

// FromRoots returns the monic polynomial ∏ (x - r) over the given roots —
// the characteristic polynomial χ_S of the paper for S = roots.
func FromRoots(roots []uint64) Poly {
	out := Poly{1}
	for _, r := range roots {
		rr := r % P
		next := make(Poly, len(out)+1)
		for i, c := range out {
			// (x - r) * c x^i contributes c x^{i+1} - r c x^i.
			next[i+1] = Add(next[i+1], c)
			next[i] = Sub(next[i], Mul(rr, c))
		}
		out = next
	}
	return out
}

// EvalProduct evaluates ∏ (x - s) at x directly in O(|set|) time without
// building coefficients; this is how Alice computes χ_A(z_i) in O(n) per
// point (paper Thm 2.3 running-time discussion).
func EvalProduct(set []uint64, x uint64) uint64 {
	acc := uint64(1)
	for _, s := range set {
		acc = Mul(acc, Sub(x%P, s%P))
	}
	return acc
}

// polyWork is the scratch one Roots or RecoverRational call computes in:
// every intermediate polynomial lives in a buffer sized once from the degree,
// so the 61 squarings of a modular power and the Euclidean steps of a gcd
// allocate nothing. Inside it a monic polynomial of degree n is its n low
// coefficients, the leading 1 implied; other polynomials are dense slices,
// trailing zeros allowed.
type polyWork struct {
	buf  []uint64 // backs everything below
	prod []uint64 // 2n: product being reduced
	pow  []uint64 // n: running power
	a, b []uint64 // n+1 each: gcd operands
	h, f []uint64 // n and n+1: Roots' power and dividend
}

// size cuts the buffers for degree n, keeping the backing array of an earlier
// call when it is large enough.
func (w *polyWork) size(n int) {
	if cap(w.buf) < 7*n+3 {
		w.buf = make([]uint64, 7*n+3)
	}
	buf := w.buf[:7*n+3]
	cut := func(k int) []uint64 {
		out := buf[:k:k]
		buf = buf[k:]
		return out
	}
	w.prod, w.pow, w.a, w.b, w.h, w.f = cut(2*n), cut(n), cut(n+1), cut(n+1), cut(n), cut(n+1)
}

// mulMod sets dst (n words) to a·b mod m for monic m of degree n = len(m)
// and len(a), len(b) ≤ n, both non-empty. dst may alias a or b.
func (w *polyWork) mulMod(dst, a, b, m []uint64) {
	n := len(m)
	prod := w.prod[:len(a)+len(b)-1]
	clear(prod)
	for i, x := range a {
		if x == 0 {
			continue
		}
		for j, y := range b {
			prod[i+j] = Add(prod[i+j], Mul(x, y))
		}
	}
	// Cancel each coefficient from x^n up against the monic modulus.
	for i := len(prod) - 1; i >= n; i-- {
		c := prod[i]
		if c == 0 {
			continue
		}
		for j, y := range m {
			prod[i-n+j] = Sub(prod[i-n+j], Mul(c, y))
		}
	}
	clear(dst[copy(dst, prod):n])
}

// powMod sets dst (n words) to base^e mod m for monic m of degree n = len(m),
// e > 0 and base already reduced (len(base) ≤ n). It scans e from the top
// bit, so every multiplication after a squaring is by the short base itself —
// linear work when base is x + a.
func (w *polyWork) powMod(dst, base []uint64, e uint64, m []uint64) {
	n := len(m)
	base = Poly(base).Normalize()
	if n == 0 || len(base) == 0 {
		clear(dst)
		return
	}
	pow := w.pow[:n]
	clear(pow[copy(pow, base):])
	for bit := bits.Len64(e) - 2; bit >= 0; bit-- {
		w.mulMod(pow, pow, pow, m)
		if e>>uint(bit)&1 == 1 {
			w.mulMod(pow, pow, base, m)
		}
	}
	copy(dst, pow)
}

// gcd returns the monic greatest common divisor of p and q, not both zero, as
// a dense slice (leading 1 included) aliasing w.a or w.b. Neither input is
// modified.
func (w *polyWork) gcd(p, q []uint64) []uint64 {
	a := Poly(w.a[:copy(w.a, p)]).Normalize()
	b := Poly(w.b[:copy(w.b, q)]).Normalize()
	for len(b) != 0 {
		// a = a mod b in place, then swap.
		db := len(b) - 1
		leadInv := Inv(b[db])
		for len(a) > db {
			da := len(a) - 1
			c := Mul(a[da], leadInv)
			for i, y := range b[:db] {
				a[da-db+i] = Sub(a[da-db+i], Mul(c, y))
			}
			a = a[:da].Normalize()
		}
		a, b = b, a
	}
	if lead := a[len(a)-1]; lead != 1 {
		inv := Inv(lead)
		for i, x := range a {
			a[i] = Mul(x, inv)
		}
	}
	return a
}

// ErrNotSplitting is returned by Roots when the polynomial does not factor
// completely into distinct linear terms (which signals a corrupted transcript
// or an undersized difference bound in the reconciliation protocols).
var ErrNotSplitting = errors.New("field: polynomial does not split into distinct linear factors")

// Roots returns all roots of p, which must be squarefree and split into
// distinct linear factors over GF(P); otherwise ErrNotSplitting is returned.
// It uses Cantor–Zassenhaus equal-degree splitting with deterministic
// pseudo-random shifts derived from seed, so both parties of a protocol (and
// reruns of a test) extract roots identically.
func Roots(p Poly, seed uint64) ([]uint64, error) {
	return new(Solver).Roots(p, seed)
}

// Solver is the scratch of a characteristic-polynomial decode — the linear
// system of RecoverRational, its reduction to lowest terms, and Roots — kept
// so that a caller decoding many pairs (Theorem 3.9's per-pair recoveries)
// allocates for the first and reuses for the rest. The zero value is ready. A
// Solver serves one call at a time, and what a method returns aliases the
// Solver: it is valid until the next call of the same method.
type Solver struct {
	pw polyWork

	// RecoverRational: the system row-major, then its solution.
	mat, rhs, sol []uint64
	pivot         []int
	num, den      []uint64

	// Roots: the factors still to split, the roots found, the shift stream.
	fac, roots []uint64
	state      uint64
}

// grown returns buf with length n, reallocating only when its capacity is
// short. Contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Roots is the package-level Roots on the Solver's scratch.
func (s *Solver) Roots(p Poly, seed uint64) ([]uint64, error) {
	p = p.Monic()
	if len(p) == 0 {
		return nil, ErrNotSplitting
	}
	n := len(p) - 1
	s.roots = grown(s.roots, n)[:0]
	if n == 0 {
		return s.roots, nil
	}
	// fac holds the monic factors still to split, laid end to end with their
	// leading 1s implied: a factor of degree k is k words, and splitting it
	// into degrees j and k-j overwrites it in place.
	s.fac = grown(s.fac, n)
	copy(s.fac, p)
	s.pw.size(n)
	// p splits into distinct linear factors iff it divides x^P - x, that is
	// iff x^P ≡ x (mod p); otherwise it has a repeated or higher-degree
	// factor. Degree 1 always passes: x ≡ -c (mod x + c) and (-c)^P = -c.
	if n > 1 {
		xP := s.pw.h[:n]
		s.pw.powMod(xP, Poly{0, 1}, P, s.fac)
		xP[1] = Sub(xP[1], 1)
		if !Poly(xP).IsZero() {
			return nil, ErrNotSplitting
		}
	}
	s.state = seed ^ 0x726f6f7473 // "roots"
	if err := s.split(s.fac); err != nil {
		return nil, err
	}
	return s.roots, nil
}

// split appends the roots of the monic factor f (leading 1 implied) to
// s.roots, splitting it in place.
func (s *Solver) split(f []uint64) error {
	w := &s.pw
	d := len(f)
	switch d {
	case 0:
		return nil
	case 1:
		// f = x + c  =>  root = -c.
		s.roots = append(s.roots, Neg(f[0]))
		return nil
	}
	full := append(append(w.f[:0], f...), 1) // f with its leading 1
	for attempt := 0; attempt < 64; attempt++ {
		s.state = s.state*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		a := Reduce(s.state ^ (s.state >> 29))
		// g = gcd(f, (x+a)^((P-1)/2) - 1): each root r of f lands in g
		// iff r+a is a quadratic residue, a 50/50 split per root.
		h := w.h[:d]
		shift := [2]uint64{a, 1}
		w.powMod(h, shift[:], (P-1)/2, f)
		h[0] = Sub(h[0], 1)
		g := w.gcd(full, h)
		dg := len(g) - 1
		if dg == 0 || dg == d {
			continue
		}
		// quo = f / g, dividing in place: the quotient's coefficients
		// replace the dividend's from the top down, the remainder is
		// what stays below x^dg.
		divideInPlace(full, g)
		if !Poly(full[:dg]).IsZero() {
			return ErrNotSplitting
		}
		copy(f, g[:dg])
		copy(f[dg:], full[dg:d])
		if err := s.split(f[:dg]); err != nil {
			return err
		}
		return s.split(f[dg:])
	}
	return ErrNotSplitting
}

// divideInPlace divides f by the monic g (both dense, leading coefficients
// included, deg f ≥ deg g): afterwards f[deg g:] is the quotient and
// f[:deg g] the remainder.
func divideInPlace(f, g []uint64) {
	dg := len(g) - 1
	for i := len(f) - 1; i >= dg; i-- {
		c := f[i]
		for j, y := range g[:dg] {
			f[i-dg+j] = Sub(f[i-dg+j], Mul(c, y))
		}
	}
}
