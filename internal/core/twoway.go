package core

import (
	"fmt"

	"sosr/internal/hashing"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Two-way (mutual) reconciliation. The paper focuses on the one-way notion
// and notes "our work can be extended to mutual reconciliation in various
// ways" (§1). For sets of sets — unlike unlabeled graphs (Figure 1) — the
// union of two parent sets is well defined, so the natural mutual protocol
// is: run any one-way protocol so Bob learns Alice's parent set, then Bob
// returns exactly the child sets Alice lacks (he knows both sides' diff),
// leaving both parties with the union. The return leg is information-
// optimal: it carries only B \ A, serialized once.

// TwoWayResult reports a mutual reconciliation.
type TwoWayResult struct {
	// Union is the common final parent set (canonical order).
	Union [][]uint64
	// ToAlice are the child sets Bob shipped back (B \ A).
	ToAlice [][]uint64
	// ToBob are the child sets Bob learned from Alice (A \ B).
	ToBob [][]uint64
	// Stats covers both legs.
	Stats transport.Stats
	// OneWay is the result of the underlying one-way protocol.
	OneWay *Result
}

// OneWayProtocol abstracts the underlying one-way run for TwoWay.
type OneWayProtocol func(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64) (*Result, error)

// TwoWay runs a mutual reconciliation on top of the given one-way protocol:
// both parties end holding alice ∪ bob (as sets of child sets). One extra
// round (Bob → Alice) carrying the child sets Alice lacks.
func TwoWay(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, oneWay OneWayProtocol) (*TwoWayResult, error) {
	res, err := oneWay(sess, coins, alice, bob)
	if err != nil {
		return nil, err
	}
	// Bob now holds Alice's parent set and knows the removed child sets
	// (B \ A); he ships them back verbatim.
	var back []byte
	for _, cs := range res.Removed {
		back = appendFramed(back, setutil.Encode(cs))
	}
	msg := sess.Send(transport.Bob, "twoway-return", back)

	// Alice decodes the return leg and forms the union; Bob forms the same
	// union locally (recovered ∪ removed).
	var toAlice [][]uint64
	for len(msg) > 0 {
		body, n, err := readFramed(msg)
		if err != nil {
			return nil, err
		}
		msg = msg[n:]
		cs, _, ok := setutil.Decode(body)
		if !ok {
			return nil, fmt.Errorf("core: corrupt two-way return leg")
		}
		toAlice = append(toAlice, cs)
	}
	union := setutil.CloneSets(res.Recovered)
	union = append(union, setutil.CloneSets(toAlice)...)
	setutil.SortSets(union)
	// Alice's union must equal Bob's: alice ∪ toAlice == recovered ∪ removed.
	aliceUnion := setutil.CloneSets(alice)
	aliceUnion = append(aliceUnion, setutil.CloneSets(toAlice)...)
	if !setutil.EqualSetOfSets(dedupeChildSets(aliceUnion), dedupeChildSets(union)) {
		return nil, fmt.Errorf("%w: two-way views diverge", ErrVerify)
	}
	return &TwoWayResult{
		Union:   dedupeChildSets(union),
		ToAlice: sortSets(toAlice),
		ToBob:   res.Added,
		Stats:   sess.Stats(),
		OneWay:  res,
	}, nil
}

// dedupeChildSets removes duplicate child sets from a canonically sorted
// parent (duplicates only arise if the same child set existed on both
// sides of a two-way merge).
func dedupeChildSets(sorted [][]uint64) [][]uint64 {
	out := sorted[:0]
	for i, cs := range sorted {
		if i > 0 && setutil.Equal(sorted[i-1], cs) {
			continue
		}
		out = append(out, cs)
	}
	return out
}
