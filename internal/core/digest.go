package core

import (
	"errors"

	"sosr/internal/hashing"
)

// The one-round protocols (naive, nested, cascade) split into one payload
// Alice builds from her parent set alone (AliceMsg) and Bob's application of
// it (ApplyMsg): the bytes the in-process protocol records under the plan's
// transport label, with no header. Both parties derive every size and seed
// from (kind, coins, p, d, d̂), which a split deployment agrees on out of band —
// the sosrnet handshake does.

// DigestKind identifies a one-round protocol.
type DigestKind byte

// One-round digest kinds.
const (
	DigestNaive DigestKind = 1 + iota
	DigestNested
	DigestCascade
)

// ErrBadDigest indicates a payload whose parameters disagree with the
// receiver's configuration: an unknown kind, or a Bob sketch of another shape.
var ErrBadDigest = errors.New("core: malformed or incompatible digest")

// AliceMsg builds the one-round payload for kind — exactly the bytes the
// in-process protocol sends under its transport label, so its length equals
// the simulated run's recorded message size. Bob applies it with ApplyMsg
// under the same (coins, p, d, dHat); dHat is ignored by the cascade kind,
// which derives its own level plan from d.
func AliceMsg(kind DigestKind, coins hashing.Coins, alice [][]uint64, p Params, d, dHat int) ([]byte, error) {
	w := getWork()
	defer putWork(w)
	if err := w.plan.init(kind, coins, p, d, dHat); err != nil {
		return nil, err
	}
	return w.alice(&w.plan, alice), nil
}

// ApplyMsg runs Bob's side of an AliceMsg payload built under the same
// (coins, p, d, dHat). The Result carries zero Stats; the caller owns
// communication accounting.
func ApplyMsg(kind DigestKind, coins hashing.Coins, body []byte, bob [][]uint64, p Params, d, dHat int) (*Result, error) {
	w := getWork()
	defer putWork(w)
	if err := w.plan.init(kind, coins, p, d, dHat); err != nil {
		return nil, err
	}
	return w.run(&w.plan, body, bob, nil)
}
