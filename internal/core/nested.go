package core

import (
	"fmt"

	"sosr/internal/hashing"
	"sosr/internal/transport"
)

// NestedKnownD solves SSRK with Algorithm 1, "IBLT of IBLTs" (Theorem 3.5):
// every child set is encoded as an O(d)-cell child IBLT plus an O(log s)-bit
// hash; the encodings are reconciled through an O(d̂)-cell parent IBLT; Bob
// cross-decodes each of Alice's extracted child IBLTs against his own
// differing child sets. One round, O(d̂·d log u + d̂ log s) bits,
// O(n + d̂²·d) time, success probability 1 - 1/poly(d̂).
//
// d bounds the total element differences; dHat the number of differing child
// sets (pass DHat(d, p.S) when no better bound is known).
func NestedKnownD(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params, d, dHat int) (*Result, error) {
	return knownD(DigestNested, sess, coins, alice, bob, p, d, dHat)
}

// NestedUnknownD solves SSRU per Corollary 3.6: the Theorem 3.5 protocol is
// retried with d = 1, 2, 4, ... (fresh public coins per attempt) until Bob
// verifies Alice's parent hash; Bob acknowledges each attempt, giving the
// O(log d) rounds of the corollary.
func NestedUnknownD(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params) (*Result, error) {
	return doublingLoop(sess, coins, alice, bob, p, func(sess *transport.Session, att hashing.Coins, d int) (*Result, error) {
		return NestedKnownD(sess, att, alice, bob, p, d, DHat(d, p.S))
	})
}

// MaxDoublingAttempts caps the doubling loops, in process and on the wire;
// 2^31 differences is far past any representable instance.
const MaxDoublingAttempts = 31

// DoublingTooBig is the doubling loops' give-up rule: a failed attempt at
// bound d ends the loop once d has outgrown any difference the instance shape
// can represent.
func DoublingTooBig(d int, p Params) bool { return d > 4*p.S*p.H }

// doublingLoop implements the paper's "standard repeated doubling trick"
// shared by Corollaries 3.6 and 3.8: run the known-d protocol at d = 2^k
// with per-attempt coins until it succeeds, with Bob acknowledging each
// attempt so the rounds are counted honestly.
func doublingLoop(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params,
	attempt func(sess *transport.Session, coins hashing.Coins, d int) (*Result, error)) (*Result, error) {
	var lastErr error
	for k := 0; k < MaxDoublingAttempts; k++ {
		d := 1 << k
		attCoins := coins.Sub("doubling-attempt", k)
		res, err := attempt(sess, attCoins, d)
		if err == nil {
			sess.Send(transport.Bob, "ack", []byte{1})
			res.Stats = sess.Stats()
			res.Attempts = k + 1
			res.DUsed = d
			return res, nil
		}
		lastErr = err
		sess.Send(transport.Bob, "retry", []byte{0})
		if DoublingTooBig(d, p) {
			break
		}
	}
	return nil, fmt.Errorf("%w: %w", ErrGaveUp, lastErr)
}

// Replicated amplifies any known-d protocol's success probability by
// replication (§3.2): the protocol is retried with fresh coins until Bob's
// recovered parent set matches Alice's hash, at most `replicas` times. All
// attempts' communication accumulates in sess. The paper's replication is
// parallel ("run the protocol many times in parallel"), which matches the
// session's round accounting (consecutive same-sender messages share a
// round); running lazily with early stop makes the recorded bytes a lower
// bound on the parallel variant's.
func Replicated(sess *transport.Session, coins hashing.Coins, replicas int,
	attempt func(sess *transport.Session, coins hashing.Coins) (*Result, error)) (*Result, error) {
	if replicas < 1 {
		replicas = 1
	}
	var lastErr error
	for r := 0; r < replicas; r++ {
		res, err := attempt(sess, coins.Sub("replica", r))
		if err == nil {
			res.Stats = sess.Stats()
			res.Attempts = r + 1
			return res, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %w", ErrGaveUp, lastErr)
}
