package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sosr/internal/hashing"
)

// Split-party digests. The in-process protocol functions simulate both
// parties; a real deployment instead has Alice compute a single payload and
// ship it over her own channel. For the one-round protocols (naive, nested,
// cascade) that payload is self-describing: BuildDigest produces it, and any
// Bob holding the shared seed applies it with ApplyDigest. Digest bytes are
// exactly the bytes the simulated transport would have recorded, plus a
// small self-describing header.

// DigestKind identifies the protocol a digest carries.
type DigestKind byte

// One-round digest kinds.
const (
	DigestNaive DigestKind = 1 + iota
	DigestNested
	DigestCascade
)

// digestMagic guards against applying foreign blobs. The trailing digit
// versions the payload layout: SOS2 digests carry header-less child-IBLT
// keys that an SOS1 reader would mis-parse.
var digestMagic = [4]byte{'S', 'O', 'S', '2'}

// ErrBadDigest indicates a digest that does not parse or whose parameters
// disagree with the receiver's configuration.
var ErrBadDigest = errors.New("core: malformed or incompatible digest")

// digestHdrLen is the self-describing header BuildDigest puts before the
// payload: magic, kind, then S, H, U, d and d̂ as 8-byte words.
const digestHdrLen = 4 + 1 + 8 + 8 + 8 + 8 + 8

// appendDigest frames body as a digest.
func appendDigest(kind DigestKind, p Params, d, dHat int, body []byte) []byte {
	out := make([]byte, digestHdrLen, digestHdrLen+len(body))
	copy(out, digestMagic[:])
	out[4] = byte(kind)
	binary.LittleEndian.PutUint64(out[5:], uint64(p.S))
	binary.LittleEndian.PutUint64(out[13:], uint64(p.H))
	binary.LittleEndian.PutUint64(out[21:], p.U)
	binary.LittleEndian.PutUint64(out[29:], uint64(d))
	binary.LittleEndian.PutUint64(out[37:], uint64(dHat))
	return append(out, body...)
}

// resolve fills the defaults every digest entry point shares: a normalized
// shape, d ≥ 1, and d̂ = min(d, s) when none is given.
func resolve(p Params, d, dHat int) (Params, int, int, error) {
	p, err := p.normalized()
	if d < 1 {
		d = 1
	}
	if dHat <= 0 {
		dHat = DHat(d, p.S)
	}
	return p, d, dHat, err
}

// BuildDigest computes Alice's one-message payload for the given protocol.
// The digest embeds the instance parameters and difference bounds so Bob
// only needs the digest plus the shared seed.
func BuildDigest(kind DigestKind, coins hashing.Coins, alice [][]uint64, p Params, d, dHat int) ([]byte, error) {
	p, d, dHat, err := resolve(p, d, dHat)
	if err != nil {
		return nil, err
	}
	body, err := AliceMsg(kind, coins, alice, p, d, dHat)
	if err != nil {
		return nil, err
	}
	return appendDigest(kind, p, d, dHat, body), nil
}

// ApplyDigest runs Bob's side against a received digest, returning his
// reconstruction of Alice's parent set. coins must be built from the same
// seed Alice used.
func ApplyDigest(digest []byte, coins hashing.Coins, bob [][]uint64) (*Result, error) {
	if len(digest) < digestHdrLen || string(digest[:4]) != string(digestMagic[:]) {
		return nil, ErrBadDigest
	}
	kind := DigestKind(digest[4])
	p := Params{
		S: int(binary.LittleEndian.Uint64(digest[5:])),
		H: int(binary.LittleEndian.Uint64(digest[13:])),
		U: binary.LittleEndian.Uint64(digest[21:]),
	}
	d := int(binary.LittleEndian.Uint64(digest[29:]))
	dHat := int(binary.LittleEndian.Uint64(digest[37:]))
	var err error
	if p, err = p.normalized(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDigest, err)
	}
	if d < 1 || dHat < 1 || d > 1<<40 || dHat > 1<<40 {
		return nil, fmt.Errorf("%w: implausible bounds d=%d d̂=%d", ErrBadDigest, d, dHat)
	}
	if err := p.Fits(bob); err != nil {
		return nil, err
	}
	return ApplyMsg(kind, coins, digest[digestHdrLen:], bob, p, d, dHat)
}

// AliceMsg builds the raw one-round payload for kind — exactly the bytes the
// in-process protocol sends under its transport label, without BuildDigest's
// self-describing header. Split deployments that negotiate (p, d, d̂) out of
// band (e.g. the sosrnet handshake) ship this and apply it with ApplyMsg; the
// payload length therefore equals the simulated run's recorded message size.
// p must be normalized and the bounds resolved (d ≥ 1; dHat is ignored by the
// cascade kind, which derives its own level plan from d).
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

// DigestSize reports the exact digest size for planning, without building it.
func DigestSize(kind DigestKind, p Params, d, dHat int) (int, error) {
	p, d, dHat, err := resolve(p, d, dHat)
	if err != nil {
		return 0, err
	}
	w := getWork()
	defer putWork(w)
	if err := w.plan.init(kind, hashing.Coins{}, p, d, dHat); err != nil {
		return 0, err
	}
	return digestHdrLen + w.plan.msgSize(), nil
}
