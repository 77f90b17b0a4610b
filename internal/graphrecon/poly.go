package graphrecon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/transport"
)

// The §4 unlimited-computation protocols. A graph's canonical index s_G is
// the lexicographically-first isomorphic graph's edge-bit string; the
// protocol compares random evaluations of the polynomial whose coefficients
// are the bits of s_G (Schwartz–Zippel). These are exponential by design
// ("we investigate what is possible when Alice and Bob each have access to
// unlimited computation") and restricted to tiny graphs.

// ErrTooLarge indicates the graph exceeds the tiny-graph limits.
var ErrTooLarge = errors.New("graphrecon: graph too large for the §4 polynomial protocols")

// ErrNoCandidate indicates Bob found no d-edit neighbor matching Alice's
// polynomial evaluation (the true distance exceeds d).
var ErrNoCandidate = errors.New("graphrecon: no candidate within d edge edits matches")

// NextPrime returns the smallest prime ≥ x (probabilistic primality with
// certainty far beyond the protocol's own failure probability).
func NextPrime(x uint64) uint64 {
	if x <= 2 {
		return 2
	}
	if x%2 == 0 {
		x++
	}
	for {
		if new(big.Int).SetUint64(x).ProbablyPrime(32) {
			return x
		}
		x += 2
	}
}

func mulmod(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%q, lo, q)
	return rem
}

// evalIndexPoly evaluates the polynomial whose coefficients are the bits of
// code at point r, modulo q (Horner).
func evalIndexPoly(code uint64, nbits int, r, q uint64) uint64 {
	acc := uint64(0)
	for k := nbits - 1; k >= 0; k-- {
		acc = mulmod(acc, r, q)
		if code&(1<<k) != 0 {
			acc = (acc + 1) % q
		}
	}
	return acc
}

// IsomorphismTest runs the Theorem 4.1 protocol: Alice sends (r, p_A(r));
// Bob reports isomorphism iff p_B(r) matches. O(log q) bits; false positives
// with probability O(n²/q).
func IsomorphismTest(sess *transport.Session, coins hashing.Coins, ga, gb *graph.Graph) (bool, transport.Stats, error) {
	if ga.N > 8 || gb.N > 8 {
		return false, transport.Stats{}, ErrTooLarge
	}
	if ga.N != gb.N {
		return false, sess.Stats(), nil
	}
	n := ga.N
	nbits := graph.PairCount(n)
	// q ≥ n² · 2^40 makes the Schwartz–Zippel failure probability ≤ 2^-40.
	q := NextPrime(uint64(n*n) << 40)

	// --- Alice ---
	sA := graph.CanonicalCode(ga)
	src := prng.New(coins.Seed("graphrecon/poly-r", 0))
	r := src.Uint64() % q
	var msg [24]byte
	binary.LittleEndian.PutUint64(msg[0:], q)
	binary.LittleEndian.PutUint64(msg[8:], r)
	binary.LittleEndian.PutUint64(msg[16:], evalIndexPoly(sA, nbits, r, q))
	recv := sess.Send(transport.Alice, "poly-eval", msg[:])

	// --- Bob ---
	qr := binary.LittleEndian.Uint64(recv[0:])
	rr := binary.LittleEndian.Uint64(recv[8:])
	pa := binary.LittleEndian.Uint64(recv[16:])
	sB := graph.CanonicalCode(gb)
	iso := evalIndexPoly(sB, nbits, rr, qr) == pa
	return iso, sess.Stats(), nil
}

// PolyReconParams configures Theorem 4.3's reconciliation.
type PolyReconParams struct {
	// D bounds the number of edge edits separating the graphs (up to
	// isomorphism).
	D int
}

// PolyRecon runs the Theorem 4.3 protocol: Alice sends (r, p_A(r)) with
// q = n^(2d+3); Bob enumerates every graph within D edge flips of his own
// (in deterministic order), adopting the first whose canonical polynomial
// matches. O(d log n) bits of communication; O(n^(2d)) computation — tiny
// graphs only.
func PolyRecon(sess *transport.Session, coins hashing.Coins, ga, gb *graph.Graph, p PolyReconParams) (*graph.Graph, transport.Stats, error) {
	if ga.N > 6 || gb.N > 6 {
		return nil, transport.Stats{}, ErrTooLarge
	}
	if ga.N != gb.N {
		return nil, transport.Stats{}, fmt.Errorf("graphrecon: vertex count mismatch")
	}
	n, d := ga.N, p.D
	nbits := graph.PairCount(n)
	// q = next prime ≥ max(n^(2d+3), 2^40) per the theorem's union bound,
	// with a floor so tiny n still enjoy negligible failure probability.
	qMin := uint64(1)
	for i := 0; i < 2*d+3; i++ {
		qMin *= uint64(n)
	}
	if qMin < 1<<40 {
		qMin = 1 << 40
	}
	q := NextPrime(qMin)

	// --- Alice ---
	sA := graph.CanonicalCode(ga)
	src := prng.New(coins.Seed("graphrecon/poly-recon-r", 0))
	r := src.Uint64() % q
	var msg [24]byte
	binary.LittleEndian.PutUint64(msg[0:], q)
	binary.LittleEndian.PutUint64(msg[8:], r)
	binary.LittleEndian.PutUint64(msg[16:], evalIndexPoly(sA, nbits, r, q))
	recv := sess.Send(transport.Alice, "poly-recon", msg[:])

	// --- Bob: enumerate flip subsets of size 0..d in deterministic order. ---
	qr := binary.LittleEndian.Uint64(recv[0:])
	rr := binary.LittleEndian.Uint64(recv[8:])
	pa := binary.LittleEndian.Uint64(recv[16:])
	base := graph.Code(gb)
	var found *graph.Graph
	// Enumerate by increasing subset size so Bob adopts the closest match.
	for size := 0; size <= d; size++ {
		if trySize(base, n, nbits, size, rr, qr, pa, &found) {
			break
		}
	}
	if found == nil {
		return nil, transport.Stats{}, ErrNoCandidate
	}
	return found, sess.Stats(), nil
}

// trySize enumerates exactly-k flip subsets in lexicographic order.
func trySize(base uint64, n, nbits, k int, r, q, pa uint64, found **graph.Graph) bool {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	if k > nbits {
		return false
	}
	for {
		code := base
		for _, f := range idx {
			code ^= 1 << f
		}
		g := graph.FromCode(n, code)
		if evalIndexPoly(graph.CanonicalCode(g), nbits, r, q) == pa {
			*found = g
			return true
		}
		// Next combination.
		i := k - 1
		for i >= 0 && idx[i] == nbits-k+i {
			i--
		}
		if i < 0 {
			return false
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
