package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"sosr/internal/estimator"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// MultiRoundKnownD solves SSRK with the paper's multi-round protocol
// (Theorem 3.9) in three rounds:
//
//  1. Alice → Bob: an O(d̂)-cell IBLT of her child-set hashes.
//  2. Bob → Alice: his hash IBLT plus a set-difference estimator for each of
//     his differing child sets.
//  3. Alice → Bob: for each of her differing child sets, the index of Bob's
//     closest differing set (by merged-estimator distance) together with
//     either an O(d_i)-cell IBLT of the child set (when the estimated
//     difference d_i ≥ √d) or O(d_i) characteristic-polynomial evaluations
//     (when d_i < √d, per Theorem 2.3).
//
// Communication O(d̂ log s + d̂ log h + d log u) up to replication factors;
// time O(n + d̂² + d² + ...) as in the theorem statement.
//
// The per-round payloads are built and applied by the exported MR* step
// functions, so split-party deployments (sosrnet) exchange exactly the bytes
// the in-process run records.
func MultiRoundKnownD(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params, d int) (*Result, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if d < 1 {
		d = 1
	}
	return multiRound(sess, coins, alice, bob, p, d, DHat(d, p.S))
}

// MultiRoundUnknownD solves SSRU (Theorem 3.10) in four rounds: Bob first
// sends a set-difference estimator over his child-set hashes, from which
// Alice bounds the number of differing child sets; the per-pair element
// differences are bounded by the round-2 estimators, so no global d is
// needed.
func MultiRoundUnknownD(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params) (*Result, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	dHat := estimateChildDiff(sess, coins, alice, bob, p)
	// The total-difference bound is only used for the √d routing threshold
	// and per-pair sizing, both of which re-derive from round-2 estimators;
	// pass a generous cap.
	return multiRound(sess, coins, alice, bob, p, 0, dHat)
}

// estParamsFor returns the per-child-set estimator parameters (differences
// within a pair of child sets are at most 2h).
func estParamsFor(p Params) estimator.Params { return estimator.CompactParams(2 * p.H) }

// mrWork is the scratch of one multi-round step (and of the child-diff probe
// exchange): the two child-hash tables, the hash→child index, one estimator
// reset per child set and one it is merged into, the per-pair decoder shared
// with setrecon, and the arena recovered children are packed into. Each MR*
// function runs on one pooled mrWork; what it returns — a round's bytes, the
// state, the Result — is allocated for the caller and shares nothing with it.
// release drops the references to the caller's parent set and message.
type mrWork struct {
	recv, own   iblt.Table          // the peer's child-hash table and this party's
	byHash      map[uint64][]uint64 // this party's child set by its hash
	added, gone []uint64            // the decoded hash difference: Alice's side, Bob's side
	est, merged estimator.Estimator // one child set's sketch; the same merged with one of Bob's
	lb          [][]byte            // Bob's L_B estimator encodings, slices of round 2
	matches     []mrMatch
	pair        iblt.Table     // Alice's per-pair table
	set         setrecon.Work  // Bob's per-pair decodes
	rec         childRecoverer // the arena Bob's recovered children are kept in
	dA          [][]uint64
	removed     map[uint64]bool
	hashes      []uint64 // Bob's child hashes, for the Result's packing
	sorted      []uint64
}

// mrMatch is one of Alice's differing child sets with its closest partner in
// L_B (-1: none), the estimated difference to it, and — once every match is
// known and with them √d — how it travels: an IBLT of O(budget) cells, or
// budget + 1 characteristic-polynomial evaluations.
type mrMatch struct {
	bi, di int
	set    []uint64
	hash   uint64
	budget int
	poly   bool
}

var mrWorkPool = sync.Pool{New: func() any {
	return &mrWork{byHash: make(map[uint64][]uint64), removed: make(map[uint64]bool)}
}}

func getMRWork() *mrWork { return mrWorkPool.Get().(*mrWork) }

func putMRWork(w *mrWork) {
	w.release()
	mrWorkPool.Put(w)
}

// release drops every reference to the finished step's inputs and empties the
// collections, keeping their storage.
func (w *mrWork) release() {
	clear(w.byHash)
	clear(w.removed)
	clear(w.lb[:cap(w.lb)])
	clear(w.matches[:cap(w.matches)])
	clear(w.dA[:cap(w.dA)])
	w.lb, w.matches, w.dA = w.lb[:0], w.matches[:0], w.dA[:0]
	w.rec.forget()
}

// hashTable fills w.own with the parent's child-set hashes and, when index is
// set, w.byHash with the hash→child-set map rounds 2 and 3 need.
func (w *mrWork) hashTable(coins hashing.Coins, parent [][]uint64, cells int, index bool) {
	w.own.Reshape(cells, iblt.WordWidth, 0, coins.Seed("multiround/hash-iblt", 0))
	chs := childSeed(coins)
	for _, cs := range parent {
		h := setutil.Hash(chs, cs)
		if index {
			w.byHash[h] = cs
		}
		w.own.InsertUint64(h)
	}
}

// MRAlice1 builds round 1: Alice's child-set-hash IBLT (2·d̂ cells) plus her
// parent verification hash.
func MRAlice1(coins hashing.Coins, alice [][]uint64, dHat int) []byte {
	w := getMRWork()
	defer putMRWork(w)
	return w.alice1(coins, alice, dHat)
}

func (w *mrWork) alice1(coins hashing.Coins, alice [][]uint64, dHat int) []byte {
	w.hashTable(coins, alice, iblt.CellsFor(2*dHat), false)
	msg := w.own.AppendMarshal(make([]byte, 0, w.own.SerializedSize()+8))
	var h uint64
	h, w.sorted = parentHashScratch(w.sorted, coins, alice)
	return binary.LittleEndian.AppendUint64(msg, h)
}

// MRBobState carries Bob's state from MRBob2 to MRBobFinish.
type MRBobState struct {
	// WantParent is Alice's parent verification hash from round 1.
	WantParent uint64
	// DB are Bob's differing child sets in round-2 transmission order (round
	// 3's match indices refer into this slice).
	DB [][]uint64
}

// MRBob2 consumes round 1 and builds round 2: Bob's own hash IBLT plus, for
// each of his differing child sets, (hash, per-set difference estimator). The
// hash-IBLT cell count is taken from the received table so the parties need
// not negotiate d̂ explicitly.
func MRBob2(coins hashing.Coins, bob [][]uint64, p Params, msg1 []byte) ([]byte, *MRBobState, error) {
	w := getMRWork()
	defer putMRWork(w)
	return w.bob2(coins, bob, p, msg1)
}

func (w *mrWork) bob2(coins hashing.Coins, bob [][]uint64, p Params, msg1 []byte) ([]byte, *MRBobState, error) {
	if len(msg1) < 8 {
		return nil, nil, fmt.Errorf("core: short multiround round 1")
	}
	wantParent := binary.LittleEndian.Uint64(msg1[len(msg1)-8:])
	if err := w.recv.UnmarshalInto(msg1[:len(msg1)-8], iblt.DefaultHashCount, coins.Seed("multiround/hash-iblt", 0)); err != nil {
		return nil, nil, err
	}
	w.hashTable(coins, bob, w.recv.Cells(), true)
	if err := w.recv.Subtract(&w.own); err != nil { // consume the received copy
		return nil, nil, err
	}
	var err error
	if w.added, w.gone, err = w.recv.AppendDecodeUint64(w.added[:0], w.gone[:0]); err != nil {
		return nil, nil, fmt.Errorf("%w: hash IBLT: %v", ErrParentDecode, err)
	}
	// L_B: per differing child set of Bob's, (hash, estimator).
	estParams, estSeed := estParamsFor(p), coins.Seed("multiround/pair-est", 0)
	w.est.Reset(estParams, estSeed)
	estSize := w.est.SerializedSize()
	dB := make([][]uint64, 0, len(w.gone))
	round2 := make([]byte, 0, 4+w.own.SerializedSize()+4+len(w.gone)*(8+4+estSize))
	round2 = appendFramedTable(round2, &w.own)
	round2 = binary.LittleEndian.AppendUint32(round2, uint32(len(w.gone)))
	for _, h := range w.gone {
		cs, ok := w.byHash[h]
		if !ok {
			return nil, nil, fmt.Errorf("%w: unknown differing hash", ErrChildDecode)
		}
		dB = append(dB, cs)
		w.est.Reset(estParams, estSeed)
		for _, x := range cs {
			w.est.Add(x, estimator.SideB)
		}
		round2 = binary.LittleEndian.AppendUint64(round2, h)
		round2 = binary.LittleEndian.AppendUint32(round2, uint32(estSize))
		round2 = w.est.AppendMarshal(round2)
	}
	return round2, &MRBobState{WantParent: wantParent, DB: dB}, nil
}

// MRAlice3 consumes round 2 and builds round 3: per differing child set of
// Alice's, the closest-match index into Bob's L_B plus either a pair IBLT or
// characteristic-polynomial evaluations. dTotal ≤ 0 (the unknown-d variant)
// derives the √d routing threshold from the estimator sum; the returned
// dUsed reports the bound the routing actually used.
func MRAlice3(coins hashing.Coins, alice [][]uint64, p Params, dTotal int, msg2 []byte) (round3 []byte, dUsed int, err error) {
	w := getMRWork()
	defer putMRWork(w)
	return w.alice3(coins, alice, p, dTotal, msg2)
}

func (w *mrWork) alice3(coins hashing.Coins, alice [][]uint64, p Params, dTotal int, msg2 []byte) (round3 []byte, dUsed int, err error) {
	body2, n2, err := readFramed(msg2)
	if err != nil {
		return nil, 0, err
	}
	if err := w.recv.UnmarshalInto(body2, iblt.DefaultHashCount, coins.Seed("multiround/hash-iblt", 0)); err != nil {
		return nil, 0, err
	}
	rest := msg2[n2:]
	if len(rest) < 4 {
		return nil, 0, fmt.Errorf("core: short multiround round 2")
	}
	lbCount := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	// Every L_B entry occupies at least 12 bytes (8-byte hash + 4-byte
	// frame length); reject counts the message cannot possibly hold before
	// anything is sized from them — this parses untrusted network input on
	// the server. The estimators stay where they are, in the message: each
	// is validated and folded in straight from its bytes when it is merged.
	if lbCount > len(rest)/12 {
		return nil, 0, fmt.Errorf("core: L_B count %d exceeds message size", lbCount)
	}
	for j := 0; j < lbCount; j++ {
		if len(rest) < 8 {
			return nil, 0, fmt.Errorf("core: truncated L_B entry")
		}
		rest = rest[8:] // Bob's hash; Alice doesn't need it beyond ordering
		eb, n, err := readFramed(rest)
		if err != nil {
			return nil, 0, err
		}
		rest = rest[n:]
		w.lb = append(w.lb, eb)
	}
	// Alice decodes the same hash difference to find her differing sets,
	// rebuilding her table at the received table's size so a split deployment
	// needs no extra negotiation.
	w.hashTable(coins, alice, w.recv.Cells(), true)
	if err := w.own.Subtract(&w.recv); err != nil {
		return nil, 0, err
	}
	if w.added, w.gone, err = w.own.AppendDecodeUint64(w.added[:0], w.gone[:0]); err != nil {
		return nil, 0, fmt.Errorf("%w: hash IBLT (Alice): %v", ErrParentDecode, err)
	}
	estParams, estSeed := estParamsFor(p), coins.Seed("multiround/pair-est", 0)
	sumDi := 0
	for _, h := range w.added {
		cs, ok := w.byHash[h]
		if !ok {
			return nil, 0, fmt.Errorf("%w: Alice differing hash unknown", ErrChildDecode)
		}
		// Build the per-set sketch once (O(|cs|)), then merge a copy with
		// each of Bob's sketches in O(1) words — the paper's O(n + d̂²)
		// matching cost.
		w.est.Reset(estParams, estSeed)
		for _, x := range cs {
			w.est.Add(x, estimator.SideA)
		}
		bi, di := -1, math.MaxInt
		for j, eb := range w.lb {
			w.merged.CopyFrom(&w.est)
			if err := w.merged.MergeMarshaled(eb); err != nil {
				return nil, 0, err
			}
			if est := int(w.merged.Estimate()); est < di {
				di, bi = est, j
			}
		}
		if bi < 0 {
			// No differing partner at Bob's side (e.g. Bob's parent is a
			// strict subset); reconcile against the empty set.
			di = len(cs)
		}
		w.matches = append(w.matches, mrMatch{bi: bi, di: di, set: cs, hash: h})
		sumDi += di
	}
	if dTotal <= 0 {
		dTotal = sumDi + 1
	}
	sqrtD := int(math.Sqrt(float64(dTotal)))
	// Route each match — an IBLT at or above √d, evaluations below — and size
	// the round before building it.
	size := 4
	for i := range w.matches {
		m := &w.matches[i]
		m.budget, m.poly = min(m.di*setrecon.EstimatorSafety+2, mrPairBudgetCap(p)), m.di < sqrtD
		body := iblt.SerializedSizeFor(iblt.CellsFor(m.budget), iblt.WordWidth, 0)
		if m.poly {
			body = setrecon.CharPolySize(m.budget + 1)
		}
		size += 1 + 4 + 4 + body + 8
	}
	round3 = make([]byte, 0, size)
	round3 = binary.LittleEndian.AppendUint32(round3, uint32(len(w.matches)))
	for _, m := range w.matches {
		if m.poly {
			round3 = append(round3, 1)
			round3 = binary.LittleEndian.AppendUint32(round3, uint32(int32(m.bi)))
			round3 = binary.LittleEndian.AppendUint32(round3, uint32(setrecon.CharPolySize(m.budget+1)))
			round3 = setrecon.AppendCharPoly(round3, m.set, m.budget+1)
		} else {
			round3 = append(round3, 0)
			round3 = binary.LittleEndian.AppendUint32(round3, uint32(int32(m.bi)))
			w.pair.Reshape(iblt.CellsFor(m.budget), iblt.WordWidth, 0, coins.Seed("multiround/pair-iblt", 0))
			for _, x := range m.set {
				w.pair.InsertUint64(x)
			}
			round3 = appendFramedTable(round3, &w.pair)
		}
		round3 = binary.LittleEndian.AppendUint64(round3, m.hash)
	}
	return round3, dTotal, nil
}

// MRBobFinish consumes round 3, recovering each of Alice's differing child
// sets and assembling Bob's copy of her parent set. The Result carries zero
// Stats; the caller owns communication accounting.
func MRBobFinish(coins hashing.Coins, bob [][]uint64, st *MRBobState, msg3 []byte) (*Result, error) {
	w := getMRWork()
	defer putMRWork(w)
	return w.bobFinish(coins, bob, st, msg3)
}

func (w *mrWork) bobFinish(coins hashing.Coins, bob [][]uint64, st *MRBobState, msg3 []byte) (*Result, error) {
	if len(msg3) < 4 {
		return nil, fmt.Errorf("core: short multiround round 3")
	}
	count := int(binary.LittleEndian.Uint32(msg3))
	rest := msg3[4:]
	chs := childSeed(coins)
	for _, cs := range st.DB {
		w.removed[setutil.Hash(chs, cs)] = true
	}
	for i := 0; i < count; i++ {
		if len(rest) < 5 {
			return nil, fmt.Errorf("core: truncated round 3 entry")
		}
		kind := rest[0]
		bi := int(int32(binary.LittleEndian.Uint32(rest[1:])))
		rest = rest[5:]
		body, n, err := readFramed(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[n:]
		if len(rest) < 8 {
			return nil, fmt.Errorf("core: truncated round 3 hash")
		}
		wantHash := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		var candidate []uint64
		if bi >= 0 {
			if bi >= len(st.DB) {
				return nil, fmt.Errorf("%w: match index out of range", ErrChildDecode)
			}
			candidate = st.DB[bi]
		}
		var add, rem []uint64
		switch kind {
		case 0:
			if add, rem, err = w.set.DecodeIBLT(body, coins.Seed("multiround/pair-iblt", 0), candidate); err != nil {
				return nil, fmt.Errorf("%w: pair IBLT: %v", ErrChildDecode, err)
			}
		case 1:
			points := (len(body) - 8) / 8
			if add, rem, err = w.set.DecodeCharPoly(body, candidate, points-1, coins.Seed("multiround/cz", i)); err != nil {
				return nil, fmt.Errorf("%w: pair charpoly: %v", ErrChildDecode, err)
			}
		default:
			return nil, fmt.Errorf("core: unknown round 3 kind %d", kind)
		}
		w.rec.merge = setutil.AppendApplyDiff(w.rec.merge[:0], candidate, add, rem)
		if setutil.Hash(chs, w.rec.merge) != wantHash {
			return nil, fmt.Errorf("%w: pair recovery hash mismatch", ErrChildDecode)
		}
		w.dA = append(w.dA, w.rec.keep(w.rec.merge))
	}
	w.hashes = slices.Grow(w.hashes[:0], len(bob))[:len(bob)]
	for i, cs := range bob {
		w.hashes[i] = setutil.Hash(chs, cs)
	}
	res := packResult(bob, w.hashes, w.removed, w.dA, st.DB)
	var got uint64
	if got, w.sorted = parentHashScratch(w.sorted, coins, res.Recovered); got != st.WantParent {
		return nil, ErrVerify
	}
	return res, nil
}

// multiRound composes the MR* steps over the channel (the co-simulated
// deployment of Theorems 3.9/3.10).
func multiRound(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params, dTotal, dHat int) (*Result, error) {
	msg1 := sess.Send(transport.Alice, "hash-iblt", MRAlice1(coins, alice, dHat))
	round2, st, err := MRBob2(coins, bob, p, msg1)
	if err != nil {
		return nil, err
	}
	msg2 := sess.Send(transport.Bob, "hash-iblt+estimators", round2)
	round3, dUsed, err := MRAlice3(coins, alice, p, dTotal, msg2)
	if err != nil {
		return nil, err
	}
	msg3 := sess.Send(transport.Alice, "pair-payloads", round3)
	res, err := MRBobFinish(coins, bob, st, msg3)
	if err != nil {
		return nil, err
	}
	res.Stats = sess.Stats()
	res.Attempts = 1
	res.DUsed = dUsed
	return res, nil
}

// appendFramedTable appends t's serialization after its 4-byte length, the
// framing readFramed cuts. Multi-round frames its tables because their shape
// travels with them: the receiver takes a hash table's cell count from the
// peer's, and a pair entry may be a table or evaluations.
func appendFramedTable(dst []byte, t *iblt.Table) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.SerializedSize()))
	return t.AppendMarshal(dst)
}

func readFramed(buf []byte) (body []byte, consumed int, err error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("core: truncated frame")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) < 4+n {
		return nil, 0, fmt.Errorf("core: truncated frame body (%d < %d)", len(buf)-4, n)
	}
	return buf[4 : 4+n], 4 + n, nil
}
