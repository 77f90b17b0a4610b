package core

import (
	"encoding/binary"
	"fmt"
	"math"

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
func MultiRoundKnownD(sess transport.Channel, coins hashing.Coins, alice, bob [][]uint64, p Params, d int) (*Result, error) {
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
func MultiRoundUnknownD(sess transport.Channel, coins hashing.Coins, alice, bob [][]uint64, p Params) (*Result, error) {
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

// mrHashIBLT builds an IBLT of the parent's child-set hashes plus the
// hash→child-set index rounds 1 and 3 both need.
func mrHashIBLT(coins hashing.Coins, parent [][]uint64, cells int) (*iblt.Table, map[uint64][]uint64) {
	t := iblt.NewUint64(cells, 0, coins.Seed("multiround/hash-iblt", 0))
	chs := childSeed(coins)
	byHash := make(map[uint64][]uint64, len(parent))
	for _, cs := range parent {
		h := setutil.Hash(chs, cs)
		byHash[h] = cs
		t.InsertUint64(h)
	}
	return t, byHash
}

// MRAlice1 builds round 1: Alice's child-set-hash IBLT (2·d̂ cells) plus her
// parent verification hash.
func MRAlice1(coins hashing.Coins, alice [][]uint64, dHat int) []byte {
	ta, _ := mrHashIBLT(coins, alice, iblt.CellsFor(2*dHat))
	return append(ta.Marshal(), u64le(parentHash(coins, alice))...)
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
	if len(msg1) < 8 {
		return nil, nil, fmt.Errorf("core: short multiround round 1")
	}
	wantParent := binary.LittleEndian.Uint64(msg1[len(msg1)-8:])
	taRecv, err := iblt.Unmarshal(msg1[:len(msg1)-8])
	if err != nil {
		return nil, nil, err
	}
	tb, bobByHash := mrHashIBLT(coins, bob, taRecv.Cells())
	tbBytes := tb.Marshal()
	diffT := taRecv // consume the received copy
	if err := diffT.Subtract(tb); err != nil {
		return nil, nil, err
	}
	_, bobDiffHashes, err := diffT.DecodeUint64()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: hash IBLT: %v", ErrParentDecode, err)
	}
	// L_B: per differing child set of Bob's, (hash, estimator).
	estParams := estParamsFor(p)
	estSeed := coins.Seed("multiround/pair-est", 0)
	dB := make([][]uint64, 0, len(bobDiffHashes))
	round2 := make([]byte, 0, len(tbBytes)+len(bobDiffHashes)*64)
	round2 = appendFramed(round2, tbBytes)
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(bobDiffHashes)))
	round2 = append(round2, cnt[:]...)
	for _, h := range bobDiffHashes {
		cs, ok := bobByHash[h]
		if !ok {
			return nil, nil, fmt.Errorf("%w: unknown differing hash", ErrChildDecode)
		}
		dB = append(dB, cs)
		est := estimator.New(estParams, estSeed)
		for _, x := range cs {
			est.Add(x, estimator.SideB)
		}
		round2 = append(round2, u64le(h)...)
		round2 = appendFramed(round2, est.Marshal())
	}
	return round2, &MRBobState{WantParent: wantParent, DB: dB}, nil
}

// MRAlice3 consumes round 2 and builds round 3: per differing child set of
// Alice's, the closest-match index into Bob's L_B plus either a pair IBLT or
// characteristic-polynomial evaluations. dTotal ≤ 0 (the unknown-d variant)
// derives the √d routing threshold from the estimator sum; the returned
// dUsed reports the bound the routing actually used.
func MRAlice3(coins hashing.Coins, alice [][]uint64, p Params, dTotal int, msg2 []byte) (round3 []byte, dUsed int, err error) {
	body2, n2, err := readFramed(msg2)
	if err != nil {
		return nil, 0, err
	}
	tbRecv, err := iblt.Unmarshal(body2)
	if err != nil {
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
	// allocating — this parses untrusted network input on the server.
	if lbCount > len(rest)/12 {
		return nil, 0, fmt.Errorf("core: L_B count %d exceeds message size", lbCount)
	}
	lbEst := make([]*estimator.Estimator, lbCount)
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
		lbEst[j], err = estimator.Unmarshal(eb)
		if err != nil {
			return nil, 0, err
		}
	}
	// Alice decodes the same hash difference to find her differing sets,
	// rebuilding her table at the received table's size so a split deployment
	// needs no extra negotiation.
	ta, aliceByHash := mrHashIBLT(coins, alice, tbRecv.Cells())
	if err := ta.Subtract(tbRecv); err != nil {
		return nil, 0, err
	}
	aliceDiffHashes, _, err := ta.DecodeUint64()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: hash IBLT (Alice): %v", ErrParentDecode, err)
	}
	estParams := estParamsFor(p)
	estSeed := coins.Seed("multiround/pair-est", 0)
	type match struct {
		bi   int
		di   int
		set  []uint64
		hash uint64
	}
	matches := make([]match, 0, len(aliceDiffHashes))
	sumDi := 0
	var merged estimator.Estimator // scratch: one differing set's sketch merged with one of Bob's
	for _, h := range aliceDiffHashes {
		cs, ok := aliceByHash[h]
		if !ok {
			return nil, 0, fmt.Errorf("%w: Alice differing hash unknown", ErrChildDecode)
		}
		// Build the per-set sketch once (O(|cs|)), then merge a copy with
		// each of Bob's sketches in O(1) words — the paper's O(n + d̂²)
		// matching cost.
		base := estimator.New(estParams, estSeed)
		for _, x := range cs {
			base.Add(x, estimator.SideA)
		}
		bi, di := -1, math.MaxInt
		for j, ebj := range lbEst {
			merged.CopyFrom(base)
			if err := merged.Merge(ebj); err != nil {
				return nil, 0, err
			}
			if est := int(merged.Estimate()); est < di {
				di, bi = est, j
			}
		}
		if bi < 0 {
			// No differing partner at Bob's side (e.g. Bob's parent is a
			// strict subset); reconcile against the empty set.
			di = len(cs)
			bi = -1
		}
		matches = append(matches, match{bi: bi, di: di, set: cs, hash: h})
		sumDi += di
	}
	if dTotal <= 0 {
		dTotal = sumDi + 1
	}
	sqrtD := int(math.Sqrt(float64(dTotal)))
	round3 = make([]byte, 4)
	binary.LittleEndian.PutUint32(round3, uint32(len(matches)))
	for _, m := range matches {
		budget := m.di*EstimatorSafety + 2
		budget = min(budget, mrPairBudgetCap(p))
		var kind byte
		var body []byte
		if m.di >= sqrtD {
			kind = 0
			t := iblt.NewUint64(iblt.CellsFor(budget), 0, coins.Seed("multiround/pair-iblt", 0))
			for _, x := range m.set {
				t.InsertUint64(x)
			}
			body = t.Marshal()
		} else {
			kind = 1
			body = setrecon.EncodeCharPoly(m.set, budget+1)
		}
		round3 = append(round3, kind)
		var bi [4]byte
		binary.LittleEndian.PutUint32(bi[:], uint32(int32(m.bi)))
		round3 = append(round3, bi[:]...)
		round3 = appendFramed(round3, body)
		round3 = append(round3, u64le(m.hash)...)
	}
	return round3, dTotal, nil
}

// MRBobFinish consumes round 3, recovering each of Alice's differing child
// sets and assembling Bob's copy of her parent set. The Result carries zero
// Stats; the caller owns communication accounting.
func MRBobFinish(coins hashing.Coins, bob [][]uint64, st *MRBobState, msg3 []byte) (*Result, error) {
	if len(msg3) < 4 {
		return nil, fmt.Errorf("core: short multiround round 3")
	}
	count := int(binary.LittleEndian.Uint32(msg3))
	rest := msg3[4:]
	chs := childSeed(coins)
	removedHashes := make(map[uint64]bool, len(st.DB))
	for _, cs := range st.DB {
		removedHashes[setutil.Hash(chs, cs)] = true
	}
	var dA [][]uint64
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
		var rec []uint64
		switch kind {
		case 0:
			t, err := iblt.Unmarshal(body)
			if err != nil {
				return nil, err
			}
			for _, x := range candidate {
				t.DeleteUint64(x)
			}
			add, rem, err := t.DecodeUint64()
			if err != nil {
				return nil, fmt.Errorf("%w: pair IBLT: %v", ErrChildDecode, err)
			}
			rec = setutil.ApplyDiff(candidate, add, rem)
		case 1:
			points := (len(body) - 8) / 8
			add, rem, err := setrecon.DecodeCharPoly(body, candidate, points-1, coins.Seed("multiround/cz", i))
			if err != nil {
				return nil, fmt.Errorf("%w: pair charpoly: %v", ErrChildDecode, err)
			}
			rec = setutil.ApplyDiff(candidate, add, rem)
		default:
			return nil, fmt.Errorf("core: unknown round 3 kind %d", kind)
		}
		if setutil.Hash(chs, rec) != wantHash {
			return nil, fmt.Errorf("%w: pair recovery hash mismatch", ErrChildDecode)
		}
		dA = append(dA, rec)
	}
	final := assemble(bob, dA, removedHashes, coins)
	if parentHash(coins, final) != st.WantParent {
		return nil, ErrVerify
	}
	return &Result{
		Recovered: final,
		Added:     sortSets(dA),
		Removed:   sortSets(st.DB),
	}, nil
}

// multiRound composes the MR* steps over the channel (the co-simulated
// deployment of Theorems 3.9/3.10).
func multiRound(sess transport.Channel, coins hashing.Coins, alice, bob [][]uint64, p Params, dTotal, dHat int) (*Result, error) {
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
