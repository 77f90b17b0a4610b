package core

import (
	"sosr/internal/estimator"
	"sosr/internal/hashing"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// NaiveKnownD solves SSRK by ignoring that the items are sets (Theorem 3.3):
// each child set becomes one opaque fixed-width item from the universe of
// all possible child sets, and the parent sets are reconciled with a single
// vector-keyed IBLT of O(d̂) cells. One round, O(d̂ · min(h log u, u)) bits,
// O(n) time, success probability 1 - 1/poly(d̂).
func NaiveKnownD(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params, dHat int) (*Result, error) {
	res, err := knownD(DigestNaive, sess, coins, alice, bob, p, 1, dHat)
	if err != nil {
		return nil, err
	}
	res.DUsed = dHat
	return res, nil
}

// NaiveUnknownD solves SSRU naively (Theorem 3.4): Bob first sends a
// set-difference estimator over his child-set hashes; Alice uses the merged
// estimate (scaled for safety) as d̂ and runs the Theorem 3.3 protocol. Two
// rounds.
func NaiveUnknownD(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params) (*Result, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	dHat := estimateChildDiff(sess, coins, alice, bob, p)
	res, err := NaiveKnownD(sess, coins, alice, bob, p, dHat)
	if err != nil {
		return nil, err
	}
	res.Stats = sess.Stats()
	return res, nil
}

// estimateChildDiff runs the shared round-0 exchange: Bob sends an estimator
// over his child-set hashes; Alice merges her own and returns a safe bound
// on the number of differing child sets.
func estimateChildDiff(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params) int {
	msg := sess.Send(transport.Bob, "childdiff-estimator", BuildChildDiffProbe(coins, bob, p))
	return EstimateChildDiff(msg, coins, alice, p)
}

// BuildChildDiffProbe is Bob's half of the unknown-d̂ estimation: a
// set-difference estimator over his child-set hashes, the probe an unknown-d
// session opens with.
func BuildChildDiffProbe(coins hashing.Coins, bob [][]uint64, p Params) []byte {
	w := getMRWork()
	defer putMRWork(w)
	w.sketchChildHashes(coins, bob, p, estimator.SideB)
	return w.est.Marshal()
}

// sketchChildHashes resets the workspace's estimator to the child-diff shape
// and adds every child-set hash of parent on the given side.
func (w *mrWork) sketchChildHashes(coins hashing.Coins, parent [][]uint64, p Params, side estimator.Side) {
	w.est.Reset(estimator.CompactParams(2*p.S), coins.Seed("sos/childdiff-est", 0))
	chs := childSeed(coins)
	for _, cs := range parent {
		w.est.Add(setutil.Hash(chs, cs), side)
	}
}

// EstimateChildDiff is Alice's half: merge the probe with her own child-set
// hashes and return a safe bound on the number of differing child sets. A
// garbled probe degrades only the bound (worst case p.S), never correctness.
func EstimateChildDiff(probe []byte, coins hashing.Coins, alice [][]uint64, p Params) int {
	w := getMRWork()
	defer putMRWork(w)
	w.sketchChildHashes(coins, alice, p, estimator.SideA)
	if err := w.est.MergeMarshaled(probe); err != nil {
		return p.S
	}
	dHat := int(w.est.Estimate())*setrecon.EstimatorSafety + 2
	if dHat > p.S*2 {
		dHat = p.S * 2
	}
	return dHat
}
