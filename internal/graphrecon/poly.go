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
//
// Theorem 4.3 is one message, (q, r, p_A(r)): Bob adopts the first graph
// within d edge flips of his own whose polynomial takes Alice's value at r.
// Theorem 4.1, isomorphism testing, is its d = 0 case — Bob's only candidate
// is his own graph — so both run on PolyAlice and PolyApply.

// ErrTooLarge indicates the graph exceeds the tiny-graph limits.
var ErrTooLarge = errors.New("graphrecon: graph too large for the §4 polynomial protocols")

// ErrNoCandidate indicates Bob found no d-edit neighbor matching Alice's
// polynomial evaluation (the true distance exceeds d; at d = 0, the graphs
// are not isomorphic).
var ErrNoCandidate = errors.New("graphrecon: no candidate within d edge edits matches")

// ErrBadPolyMsg indicates a poly-recon message that does not fit the modulus
// Bob derives from his own (n, d): a peer's bytes, refused before Bob
// evaluates anything under them.
var ErrBadPolyMsg = errors.New("graphrecon: malformed poly-recon message")

// PolyMsgSize is the poly-recon message: q, r and p_A(r), 8 bytes each,
// whatever n and d.
const PolyMsgSize = 24

// maxPrime64 is the largest prime below 2^64, where the modulus saturates.
const maxPrime64 = 1<<64 - 59

// NextPrime returns the smallest prime ≥ x (probabilistic primality with
// certainty far beyond the protocol's own failure probability). x must not
// exceed the largest 64-bit prime.
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

// PolyShape is what both parties derive from (n, d) before a byte moves: the
// flip bound Bob enumerates to, d capped at the n(n−1)/2 vertex pairs, and the
// prime modulus q ≥ max(n^(2d+3), 2^40) of Theorem 4.3's union bound, with a
// floor so tiny n still enjoy negligible failure probability. q saturates at
// the largest 64-bit prime: at most 2^15 candidates (n = 6) of degree below
// 15 then keep the union bound under 10⁻¹³. A graph beyond the tiny-graph
// limits — n ≤ 8 at d = 0, n ≤ 6 above — is ErrTooLarge.
func PolyShape(n, d int) (flips int, q uint64, err error) {
	if n > 8 || d > 0 && n > 6 {
		return 0, 0, ErrTooLarge
	}
	flips = min(d, graph.PairCount(n))
	pow := uint64(1)
	for i := 0; i < 2*flips+3; i++ {
		hi, lo := bits.Mul64(pow, uint64(n))
		if hi != 0 || lo > maxPrime64 {
			return flips, maxPrime64, nil
		}
		pow = lo
	}
	return flips, NextPrime(max(pow, 1<<40)), nil
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

// PolyAlice builds Alice's Theorem 4.3 message for her graph at edit bound d:
// the modulus, a point r drawn from the public coins, and p_A(r), the
// polynomial of her canonical index evaluated there. The in-process protocol
// sends it under "poly-recon"; PolyApply is Bob's half.
func PolyAlice(coins hashing.Coins, ga *graph.Graph, d int) ([]byte, error) {
	_, q, err := PolyShape(ga.N, d)
	if err != nil {
		return nil, err
	}
	r := prng.New(coins.Seed("graphrecon/poly-recon-r", 0)).Uint64() % q
	msg := make([]byte, 0, PolyMsgSize)
	msg = binary.LittleEndian.AppendUint64(msg, q)
	msg = binary.LittleEndian.AppendUint64(msg, r)
	return binary.LittleEndian.AppendUint64(msg, evalIndexPoly(graph.CanonicalCode(ga), graph.PairCount(ga.N), r, q)), nil
}

// PolyApply runs Bob's Theorem 4.3 half against Alice's message: every graph
// within d edge flips of gb, fewest flips first and in a fixed order, until
// one's canonical polynomial takes Alice's value at r (ErrNoCandidate when
// none does). Bob derives the modulus himself, so a message of another size,
// with another modulus, or with r or p_A(r) not below it is ErrBadPolyMsg.
func PolyApply(gb *graph.Graph, d int, msg []byte) (*graph.Graph, error) {
	flips, q, err := PolyShape(gb.N, d)
	if err != nil {
		return nil, err
	}
	if len(msg) != PolyMsgSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadPolyMsg, len(msg))
	}
	qA := binary.LittleEndian.Uint64(msg[0:])
	r := binary.LittleEndian.Uint64(msg[8:])
	pa := binary.LittleEndian.Uint64(msg[16:])
	if qA != q {
		return nil, fmt.Errorf("%w: modulus %d, want %d", ErrBadPolyMsg, qA, q)
	}
	if r >= q || pa >= q {
		return nil, fmt.Errorf("%w: point or value not below the modulus", ErrBadPolyMsg)
	}
	base, nbits := graph.Code(gb), graph.PairCount(gb.N)
	for k := 0; k <= flips; k++ {
		if g := trySize(base, gb.N, nbits, k, r, q, pa); g != nil {
			return g, nil
		}
	}
	return nil, ErrNoCandidate
}

// PolyRecon runs Theorem 4.3 in process: Alice's PolyAlice message crosses
// the session and Bob's PolyApply answers it. O(d log n) bits of
// communication; O(n^(2d)) computation — tiny graphs only.
func PolyRecon(sess *transport.Session, coins hashing.Coins, ga, gb *graph.Graph, d int) (*graph.Graph, transport.Stats, error) {
	if ga.N != gb.N {
		return nil, transport.Stats{}, fmt.Errorf("graphrecon: vertex count mismatch")
	}
	msg, err := PolyAlice(coins, ga, d)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	g, err := PolyApply(gb, d, sess.Send(transport.Alice, "poly-recon", msg))
	if err != nil {
		return nil, transport.Stats{}, err
	}
	return g, sess.Stats(), nil
}

// trySize enumerates exactly-k flip subsets (k ≤ nbits) in lexicographic
// order and returns the first candidate whose polynomial matches, nil when
// none does.
func trySize(base uint64, n, nbits, k int, r, q, pa uint64) *graph.Graph {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		code := base
		for _, f := range idx {
			code ^= 1 << f
		}
		g := graph.FromCode(n, code)
		if evalIndexPoly(graph.CanonicalCode(g), nbits, r, q) == pa {
			return g
		}
		// Next combination.
		i := k - 1
		for i >= 0 && idx[i] == nbits-k+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
