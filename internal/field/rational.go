package field

import "errors"

// ErrInterpolation is returned when rational-function recovery fails, e.g.
// when the true set difference exceeds the bound the caller supplied.
var ErrInterpolation = errors.New("field: rational interpolation failed")

// RecoverRational recovers monic polynomials (num, den) of degrees exactly
// (degNum, degDen) such that num(z_i)/den(z_i) = ratio_i at every provided
// point, reduced to lowest terms. It implements the Padé-style linear system
// of Minsky–Trachtenberg–Zippel set reconciliation:
//
//	num(z) - ratio·den(z) = 0  for each evaluation point z,
//
// with the top coefficients pinned to 1, solved by Gaussian elimination in
// O((degNum+degDen)^3) — the paper's O(d^3) interpolation step. When the true
// difference is smaller than the caller's bound the system is
// underdetermined; any solution then shares a common factor with the truth,
// which the final gcd reduction removes. The system is one flat row-major
// array on the Solver's scratch, and the reduction divides in place.
//
// points and ratios must have the same length, at least degNum+degDen.
func (s *Solver) RecoverRational(points, ratios []uint64, degNum, degDen int) (num, den Poly, err error) {
	if len(points) != len(ratios) {
		return nil, nil, ErrInterpolation
	}
	if degNum < 0 || degDen < 0 {
		return nil, nil, ErrInterpolation
	}
	unknowns := degNum + degDen
	if unknowns == 0 {
		return Poly{1}, Poly{1}, nil
	}
	if len(points) < unknowns {
		return nil, nil, ErrInterpolation
	}
	// Unknown vector: num coefficients c_0..c_{degNum-1} then den coefficients
	// q_0..q_{degDen-1}. Equation per point z with ratio r:
	//   Σ c_j z^j - r Σ q_j z^j = r z^degDen - z^degNum.
	rows := len(points)
	s.mat = grown(s.mat, rows*unknowns)
	s.rhs = grown(s.rhs, rows)
	for i := 0; i < rows; i++ {
		z, r := points[i]%P, ratios[i]%P
		row := s.mat[i*unknowns : (i+1)*unknowns]
		zp := uint64(1)
		for j := 0; j < degNum; j++ {
			row[j] = zp
			zp = Mul(zp, z)
		}
		zNum := zp // zp is now z^degNum
		zp = uint64(1)
		for j := 0; j < degDen; j++ {
			row[degNum+j] = Neg(Mul(r, zp))
			zp = Mul(zp, z)
		}
		zDen := zp
		s.rhs[i] = Sub(Mul(r, zDen), zNum)
	}
	s.sol = grown(s.sol, unknowns)
	s.pivot = grown(s.pivot, unknowns)
	if !solveFlat(s.mat, s.rhs, s.sol, s.pivot) {
		return nil, nil, ErrInterpolation
	}
	s.num = append(append(grown(s.num, degNum+1)[:0], s.sol[:degNum]...), 1)
	s.den = append(append(grown(s.den, degDen+1)[:0], s.sol[degNum:]...), 1)
	// Reduce to lowest terms: when the caller's degree bound exceeded the
	// truth, num and den share a (monic) common factor. Both are monic, so
	// are the quotients.
	s.pw.size(max(degNum, degDen))
	g := s.pw.gcd(s.num, s.den)
	if dg := len(g) - 1; dg > 0 {
		divideInPlace(s.num, g)
		divideInPlace(s.den, g)
		return s.num[dg:], s.den[dg:], nil
	}
	return s.num, s.den, nil
}

// solveFlat solves mat · sol = rhs over GF(P) by Gaussian elimination with
// partial pivoting, mat row-major with len(rhs) rows and len(sol) columns;
// pivot is scratch of len(sol). The system may be over- or under-determined:
// free variables are set to zero, and it reports false only if the system is
// inconsistent. mat and rhs are consumed.
func solveFlat(mat, rhs, sol []uint64, pivot []int) bool {
	rows, cols := len(rhs), len(sol)
	row := func(i int) []uint64 { return mat[i*cols : (i+1)*cols] }
	for i := range pivot {
		pivot[i] = -1
	}
	r := 0
	for c := 0; c < cols && r < rows; c++ {
		// Find pivot.
		p := -1
		for i := r; i < rows; i++ {
			if mat[i*cols+c] != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		if p != r {
			pr, rr := row(p), row(r)
			for j := range rr {
				rr[j], pr[j] = pr[j], rr[j]
			}
			rhs[r], rhs[p] = rhs[p], rhs[r]
		}
		rr := row(r)
		inv := Inv(rr[c])
		for j := c; j < cols; j++ {
			rr[j] = Mul(rr[j], inv)
		}
		rhs[r] = Mul(rhs[r], inv)
		for i := 0; i < rows; i++ {
			ri := row(i)
			if i == r || ri[c] == 0 {
				continue
			}
			f := ri[c]
			for j := c; j < cols; j++ {
				ri[j] = Sub(ri[j], Mul(f, rr[j]))
			}
			rhs[i] = Sub(rhs[i], Mul(f, rhs[r]))
		}
		pivot[c] = r
		r++
	}
	// Inconsistency check: a zero row with nonzero rhs.
	for i := r; i < rows; i++ {
		if rhs[i] != 0 {
			return false
		}
	}
	// Rows are in reduced echelon form, so with the free variables at zero
	// each pivot variable is its row's right-hand side.
	for c := range sol {
		sol[c] = 0
		if pr := pivot[c]; pr >= 0 {
			sol[c] = rhs[pr]
		}
	}
	return true
}
