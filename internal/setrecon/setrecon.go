// Package setrecon implements one-level set reconciliation, the substrate
// that sets-of-sets reconciliation builds on:
//
//   - IBLTKnownD:   Corollary 2.2 — one round, O(d log u) bits, O(n) time,
//     success with probability 1 - 1/poly(d).
//   - IBLTUnknownD: Corollary 3.2 — two rounds; Bob first sends a
//     set-difference estimator (Theorem 3.1).
//   - CharPoly:     Theorem 2.3 — characteristic-polynomial reconciliation
//     (Minsky–Trachtenberg–Zippel); succeeds with probability 1, at
//     O(n·d + d^3) cost.
//
// All protocols are one-way: Bob ends up with Alice's set. Two-way
// reconciliation follows by applying the decoded difference to Alice as
// well; the recovered difference is returned explicitly so callers can do
// either. Data crosses parties only through transport.Session as bytes.
package setrecon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"sosr/internal/estimator"
	"sosr/internal/field"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Common protocol errors.
var (
	// ErrDecode indicates the difference structure failed to decode; the
	// caller's difference bound was likely too small (retry with a doubled
	// bound per Corollary 3.6).
	ErrDecode = errors.New("setrecon: decode failed; difference bound too small")
	// ErrVerify indicates a decoded difference did not reproduce Alice's set
	// hash (a checksum failure caught by the §2 "ward" hash).
	ErrVerify = errors.New("setrecon: recovered set failed verification")
	// ErrElementRange indicates an element outside [0, 2^60), which the
	// characteristic-polynomial protocols cannot embed.
	ErrElementRange = errors.New("setrecon: element exceeds 2^60-1 universe bound")
)

// Result reports a completed one-way reconciliation.
type Result struct {
	// Recovered is Bob's reconstruction of Alice's set (canonical order).
	Recovered []uint64
	// OnlyA holds SA \ SB; OnlyB holds SB \ SA (the decoded difference).
	OnlyA, OnlyB []uint64
	// Stats summarizes communication.
	Stats transport.Stats
}

// verifySeed labels the whole-set verification hash.
const verifySeedLabel = "setrecon/verify"

// IBLTKnownD runs Corollary 2.2: Alice encodes her set into an O(d)-cell
// IBLT plus a verification hash and sends it; Bob deletes his elements,
// peels, and applies the difference. alice and bob must be canonical sets.
func IBLTKnownD(sess *transport.Session, coins hashing.Coins, alice, bob []uint64, d int) (*Result, error) {
	// --- Alice ---
	msg := sess.Send(transport.Alice, "iblt", BuildIBLTMsg(coins, alice, d))

	// --- Bob ---
	res, err := ApplyIBLTMsg(coins, msg, bob)
	if err != nil {
		return nil, err
	}
	res.Stats = sess.Stats()
	return res, nil
}

// BuildIBLTMsg computes Alice's Corollary 2.2 payload — an O(d)-cell IBLT of
// her set plus the whole-set verification hash — for split-party deployments
// that ship it over their own channel (the in-process protocol sends exactly
// these bytes under the "iblt" label). ApplyIBLTMsg is the receiving half.
func BuildIBLTMsg(coins hashing.Coins, alice []uint64, d int) []byte {
	w := workPool.Get().(*Work)
	defer workPool.Put(w)
	ta := &w.table
	ta.Reshape(iblt.CellsFor(d), iblt.WordWidth, 0, coins.Seed("setrecon/iblt", 0))
	for _, x := range alice {
		ta.InsertUint64(x)
	}
	buf := ta.AppendMarshal(make([]byte, 0, ta.SerializedSize()+8))
	vh := setutil.Hash(coins.Seed(verifySeedLabel, 0), alice)
	return binary.LittleEndian.AppendUint64(buf, vh)
}

// Work is the scratch of one encode or decode: the table a message is built
// in or parsed into, the peel's result buffers, the estimator, and the
// characteristic-polynomial solver with its point and ratio vectors. The
// package's entry points each run on one pooled Work; a caller that decodes
// many pairs in one call (core's Theorem 3.9 steps) holds a Work of its own
// and calls the Decode methods directly. The zero value is ready. A Work
// serves one call at a time and keeps no reference to any argument: tables
// are loaded by copy, and what is kept is field elements and set elements.
type Work struct {
	table          iblt.Table
	add, rem       []uint64
	points, ratios []uint64
	solver         field.Solver
	est            estimator.Estimator
}

var workPool = sync.Pool{New: func() any { return new(Work) }}

// DecodeIBLT parses an encoded table of Alice's elements, built with seed and
// DefaultHashCount, deletes Bob's, and peels: onlyA is SA \ SB, onlyB is
// SB \ SA. Both alias w and are valid until its next decode.
func (w *Work) DecodeIBLT(body []byte, seed uint64, bob []uint64) (onlyA, onlyB []uint64, err error) {
	t := &w.table
	if err := t.UnmarshalInto(body, iblt.DefaultHashCount, seed); err != nil {
		return nil, nil, err
	}
	if t.Width() != iblt.WordWidth {
		return nil, nil, fmt.Errorf("setrecon: unexpected key width %d", t.Width())
	}
	for _, x := range bob {
		t.DeleteUint64(x)
	}
	// AppendDecodeUint64 bounds the peel, so a hostile table cannot spin.
	w.add, w.rem, err = t.AppendDecodeUint64(w.add[:0], w.rem[:0])
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return w.add, w.rem, nil
}

// ApplyIBLTMsg runs Bob's half of the Corollary 2.2 protocol against a
// received BuildIBLTMsg payload. The returned Result carries zero Stats; the
// caller owns communication accounting.
func ApplyIBLTMsg(coins hashing.Coins, msg []byte, bob []uint64) (*Result, error) {
	if len(msg) < 8 {
		return nil, fmt.Errorf("setrecon: short message (%d bytes)", len(msg))
	}
	body, vhBytes := msg[:len(msg)-8], msg[len(msg)-8:]
	w := workPool.Get().(*Work)
	defer workPool.Put(w)
	onlyA, onlyB, err := w.DecodeIBLT(body, coins.Seed("setrecon/iblt", 0), bob)
	if err != nil {
		return nil, err
	}
	res := newResult(bob, onlyA, onlyB)
	want := binary.LittleEndian.Uint64(vhBytes)
	if setutil.Hash(coins.Seed(verifySeedLabel, 0), res.Recovered) != want {
		return nil, ErrVerify
	}
	return res, nil
}

// newResult is an apply's Result: Recovered is bob with the decoded
// difference applied, OnlyA and OnlyB the difference in canonical form. The
// three are cut from one allocation, capacity-capped, so the Result shares no
// memory with its inputs and an append to one of its slices never writes into
// another. It sorts onlyA and onlyB in place.
func newResult(bob, onlyA, onlyB []uint64) *Result {
	slices.Sort(onlyA)
	onlyA = slices.Compact(onlyA)
	slices.Sort(onlyB)
	onlyB = slices.Compact(onlyB)
	buf := make([]uint64, len(bob)+2*len(onlyA)+len(onlyB))
	rec := setutil.AppendApplyDiff(buf[:0], bob, onlyA, onlyB)
	rest := buf[len(rec):]
	a := rest[:copy(rest, onlyA)]
	rest = rest[len(a):]
	b := rest[:copy(rest, onlyB)]
	return &Result{Recovered: rec[:len(rec):len(rec)], OnlyA: a[:len(a):len(a)], OnlyB: b[:len(b):len(b)]}
}

// EstimatorSafety scales estimator outputs before they are used as
// difference bounds, absorbing the constant-factor slack of Theorem 3.1.
const EstimatorSafety = 4

// IBLTUnknownD runs Corollary 3.2: Bob sends a set-difference estimator,
// Alice queries the merged estimator to bound d, then the Corollary 2.2
// protocol runs with that bound. Two rounds.
func IBLTUnknownD(sess *transport.Session, coins hashing.Coins, alice, bob []uint64) (*Result, error) {
	// --- Bob: round 1 ---
	msg := sess.Send(transport.Bob, "estimator", BuildDiffEstimator(coins, bob))

	// --- Alice: round 2 ---
	d, err := DiffBoundFromEstimator(coins, msg, alice)
	if err != nil {
		return nil, err
	}
	return IBLTKnownD(sess, coins, alice, bob, d)
}

// BuildDiffEstimator computes Bob's Theorem 3.1 round-1 message: a
// set-difference estimator over his elements (the in-process protocol sends
// exactly these bytes under the "estimator" label). Split-party callers feed
// it to DiffBoundFromEstimator on Alice's side.
func BuildDiffEstimator(coins hashing.Coins, bob []uint64) []byte {
	w := workPool.Get().(*Work)
	defer workPool.Put(w)
	w.est.Reset(estimator.Params{}, coins.Seed("setrecon/estimator", 0))
	for _, x := range bob {
		w.est.Add(x, estimator.SideB)
	}
	return w.est.Marshal()
}

// DiffBoundFromEstimator is Alice's half of the unknown-d estimation: merge
// the received probe with her own elements and return the safety-scaled
// difference bound used to size the Corollary 2.2 transmission.
func DiffBoundFromEstimator(coins hashing.Coins, probe []byte, alice []uint64) (int, error) {
	w := workPool.Get().(*Work)
	defer workPool.Put(w)
	w.est.Reset(estimator.Params{}, coins.Seed("setrecon/estimator", 0))
	for _, x := range alice {
		w.est.Add(x, estimator.SideA)
	}
	if err := w.est.MergeMarshaled(probe); err != nil {
		return 0, err
	}
	return int(w.est.Estimate())*EstimatorSafety + 4, nil
}

// CharPoly runs Theorem 2.3: Alice sends her set size and d+1 evaluations of
// her characteristic polynomial at reserved points; Bob interpolates the
// rational function χA/χB, factors numerator and denominator, and applies
// the difference. Succeeds with probability 1 whenever the true difference
// is at most d. Elements must be < 2^60.
func CharPoly(sess *transport.Session, coins hashing.Coins, alice, bob []uint64, d int) (*Result, error) {
	if d < 0 {
		d = 0
	}
	if err := checkRange(alice); err != nil {
		return nil, err
	}

	// --- Alice ---
	msg := sess.Send(transport.Alice, "charpoly", EncodeCharPoly(alice, d+1))

	// --- Bob ---
	res, err := ApplyCharPolyMsg(coins, msg, bob, d)
	if err != nil {
		return nil, err
	}
	res.Stats = sess.Stats()
	return res, nil
}

// ApplyCharPolyMsg runs Bob's Theorem 2.3 half against a received
// EncodeCharPoly payload built with `points = d+1`. The Result carries zero
// Stats; the caller owns communication accounting.
func ApplyCharPolyMsg(coins hashing.Coins, msg []byte, bob []uint64, d int) (*Result, error) {
	if err := checkRange(bob); err != nil {
		return nil, err
	}
	w := workPool.Get().(*Work)
	defer workPool.Put(w)
	onlyA, onlyB, err := w.DecodeCharPoly(msg, bob, d, coins.Seed("setrecon/czroots", 0))
	if err != nil {
		return nil, err
	}
	return newResult(bob, onlyA, onlyB), nil
}

// CheckRange verifies every element fits the 2^60 universe the
// characteristic-polynomial protocols embed into.
func CheckRange(xs []uint64) error { return checkRange(xs) }

// EncodeCharPoly builds Alice's Theorem 2.3 message: her set size followed
// by `points` evaluations of her characteristic polynomial at the reserved
// points. Cost O(n · points), the paper's per-point evaluation strategy.
func EncodeCharPoly(alice []uint64, points int) []byte {
	return AppendCharPoly(make([]byte, 0, CharPolySize(points)), alice, points)
}

// CharPolySize is the length of an EncodeCharPoly message of `points`
// evaluations (at least one).
func CharPolySize(points int) int { return 8 + 8*max(points, 1) }

// AppendCharPoly appends EncodeCharPoly(alice, points) to dst, for messages
// that carry one encoding per child set.
func AppendCharPoly(dst []byte, alice []uint64, points int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(alice)))
	for i := 0; i < max(points, 1); i++ {
		dst = binary.LittleEndian.AppendUint64(dst, field.EvalProduct(alice, field.EvalPoint(i)))
	}
	return dst
}

// DecodeCharPoly is Bob's side of Theorem 2.3, also used per child set by
// the multi-round sets-of-sets protocol (Theorem 3.9): rational recovery plus
// root extraction. msg must come from EncodeCharPoly; d bounds the true
// difference. onlyA and onlyB alias w and are valid until its next decode.
func (w *Work) DecodeCharPoly(msg []byte, bob []uint64, d int, rootSeed uint64) (onlyA, onlyB []uint64, err error) {
	if len(msg) < 8 || (len(msg)-8)%8 != 0 {
		return nil, nil, fmt.Errorf("setrecon: malformed charpoly message (%d bytes)", len(msg))
	}
	sizeA := int(binary.LittleEndian.Uint64(msg))
	evals := (len(msg) - 8) / 8
	delta := sizeA - len(bob)
	abs := delta
	if abs < 0 {
		abs = -abs
	}
	if abs > d {
		return nil, nil, ErrDecode
	}
	degDen := (d - abs) / 2
	degNum := degDen + abs
	if delta < 0 {
		degNum, degDen = degDen, degNum
	}
	if degNum+degDen > evals {
		return nil, nil, ErrDecode
	}
	w.points = slices.Grow(w.points[:0], evals)[:evals]
	w.ratios = slices.Grow(w.ratios[:0], evals)[:evals]
	for i := range w.points {
		z := field.EvalPoint(i)
		chiB := field.EvalProduct(bob, z)
		w.points[i] = z
		w.ratios[i] = field.Mul(binary.LittleEndian.Uint64(msg[8+8*i:]), field.Inv(chiB))
	}
	num, den, err := w.solver.RecoverRational(w.points, w.ratios, degNum, degDen)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	// The solver's roots are valid until its next Roots call: copy each out.
	roots, err := w.solver.Roots(num, rootSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: numerator: %v", ErrDecode, err)
	}
	w.add = append(w.add[:0], roots...)
	roots, err = w.solver.Roots(den, rootSeed^0xb0b)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: denominator: %v", ErrDecode, err)
	}
	w.rem = append(w.rem[:0], roots...)
	// Sanity: every denominator root must be one of Bob's elements, and all
	// roots must be genuine universe elements.
	for _, r := range w.rem {
		if r >= field.EvalPointBase || !setutil.Contains(bob, r) {
			return nil, nil, ErrVerify
		}
	}
	for _, r := range w.add {
		if r >= field.EvalPointBase {
			return nil, nil, ErrVerify
		}
	}
	return w.add, w.rem, nil
}

func checkRange(xs []uint64) error {
	for _, x := range xs {
		if x > setutil.MaxElement {
			return fmt.Errorf("%w: %d", ErrElementRange, x)
		}
	}
	return nil
}
