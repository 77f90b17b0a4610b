package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
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

// BuildDigest computes Alice's one-message payload for the given protocol.
// The digest embeds the instance parameters and difference bounds so Bob
// only needs the digest plus the shared seed.
func BuildDigest(kind DigestKind, coins hashing.Coins, alice [][]uint64, p Params, d, dHat int) ([]byte, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if d < 1 {
		d = 1
	}
	if dHat <= 0 {
		dHat = DHat(d, p.S)
	}
	body, err := AliceMsg(kind, coins, alice, p, d, dHat)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 4+1+8+8+8+8+8)
	copy(hdr, digestMagic[:])
	hdr[4] = byte(kind)
	binary.LittleEndian.PutUint64(hdr[5:], uint64(p.S))
	binary.LittleEndian.PutUint64(hdr[13:], uint64(p.H))
	binary.LittleEndian.PutUint64(hdr[21:], p.U)
	binary.LittleEndian.PutUint64(hdr[29:], uint64(d))
	binary.LittleEndian.PutUint64(hdr[37:], uint64(dHat))
	return append(hdr, body...), nil
}

// ApplyDigest runs Bob's side against a received digest, returning his
// reconstruction of Alice's parent set. coins must be built from the same
// seed Alice used.
func ApplyDigest(digest []byte, coins hashing.Coins, bob [][]uint64) (*Result, error) {
	const hdrLen = 4 + 1 + 8 + 8 + 8 + 8 + 8
	if len(digest) < hdrLen || string(digest[:4]) != string(digestMagic[:]) {
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
	return ApplyMsg(kind, coins, digest[hdrLen:], bob, p, d, dHat)
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
	switch kind {
	case DigestNaive:
		w.star.reuse(newNaiveCodec(p))
		return w.aliceFlat(coins, alice, &w.star, iblt.CellsFor(2*dHat), coins.Seed("naive/parent", 0)), nil
	case DigestNested:
		return w.aliceFlat(coins, alice, w.encoder(newNestedCodec(coins, p, d)), iblt.CellsFor(2*dHat), coins.Seed("nested/parent", 0)), nil
	case DigestCascade:
		w.plan.init(coins, p, d)
		return w.aliceCascade(&w.plan, coins, alice), nil
	}
	return nil, fmt.Errorf("%w: unknown kind %d", ErrBadDigest, kind)
}

// ApplyMsg runs Bob's side of an AliceMsg payload built under the same
// (coins, p, d, dHat). The Result carries zero Stats; the caller owns
// communication accounting.
func ApplyMsg(kind DigestKind, coins hashing.Coins, body []byte, bob [][]uint64, p Params, d, dHat int) (*Result, error) {
	return applyMsg(kind, coins, body, bob, p, d, nil)
}

// applyMsg runs Bob's side on a pooled workspace, subtracting sk's aggregates
// when it is given one (already checked against this shape and parent).
func applyMsg(kind DigestKind, coins hashing.Coins, body []byte, bob [][]uint64, p Params, d int, sk *BobSketch) (*Result, error) {
	w := getWork()
	defer putWork(w)
	var res *Result
	var err error
	switch kind {
	case DigestNaive:
		res, err = w.runNaive(coins, body, bob, newNaiveCodec(p), sk)
	case DigestNested:
		res, err = w.runNested(coins, body, bob, newNestedCodec(coins, p, d), sk)
	case DigestCascade:
		plan := &w.plan
		if sk != nil {
			plan = sk.plan
		} else {
			plan.init(coins, p, d)
		}
		res, err = w.runCascade(coins, plan, body, bob, sk)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadDigest, kind)
	}
	if err != nil {
		return nil, err
	}
	res.Attempts = 1
	res.DUsed = d
	return res, nil
}

// aliceFlat builds the one-table payloads — Theorem 3.3's with the full-set
// encoder, Algorithm 1's with the child encoder: every child encoding in one
// parent table, then the parent verification hash.
func (w *cascadeWork) aliceFlat(coins hashing.Coins, alice [][]uint64, enc setEncoder, cells int, seed uint64) []byte {
	w.parent.Reshape(cells, enc.width(), 0, seed)
	for _, cs := range alice {
		w.parent.Insert(enc.encode(cs))
	}
	payload := w.parent.AppendMarshal(make([]byte, 0, w.parent.SerializedSize()+8))
	return binary.LittleEndian.AppendUint64(payload, w.parentHash(coins, alice))
}

// aliceCascade builds the Algorithm 2 payload (all levels plus T*), every
// level in the one parent table.
func (w *cascadeWork) aliceCascade(plan *cascadePlan, coins hashing.Coins, alice [][]uint64) []byte {
	// Sized up front: a forest payload is ~1 MB, and growing it by doubling
	// copies it several times over.
	payload := make([]byte, 0, plan.msgSize())
	payload = binary.LittleEndian.AppendUint32(payload, uint32(plan.t))
	for i := 1; i <= plan.t; i++ {
		enc := w.encoder(plan.level[i-1])
		w.parent.Reshape(plan.parentCells(i), plan.level[i-1].width, 0, plan.parentSeed(i))
		for _, cs := range alice {
			w.parent.Insert(enc.encode(cs))
		}
		payload = appendFramedTable(payload, &w.parent)
	}
	if plan.star {
		w.star.reuse(plan.starCodec)
		w.parent.Reshape(plan.starCells(), plan.starCodec.width, 0, plan.starSeed())
		for _, cs := range alice {
			w.parent.Insert(w.star.encode(cs))
		}
		payload = append(payload, 1)
		payload = appendFramedTable(payload, &w.parent)
	} else {
		payload = append(payload, 0)
	}
	return binary.LittleEndian.AppendUint64(payload, w.parentHash(coins, alice))
}

// DigestSize reports the exact digest size for planning, without building it.
func DigestSize(kind DigestKind, p Params, d, dHat int) (int, error) {
	p, err := p.normalized()
	if err != nil {
		return 0, err
	}
	if d < 1 {
		d = 1
	}
	if dHat <= 0 {
		dHat = DHat(d, p.S)
	}
	const hdrLen = 4 + 1 + 8 + 8 + 8 + 8 + 8
	switch kind {
	case DigestNaive:
		codec := newNaiveCodec(p)
		return hdrLen + iblt.SerializedSizeFor(iblt.CellsFor(2*dHat), codec.width, 0) + 8, nil
	case DigestNested:
		codec := newNestedCodec(hashing.NewCoins(0), p, d)
		return hdrLen + iblt.SerializedSizeFor(iblt.CellsFor(2*dHat), codec.width, 0) + 8, nil
	case DigestCascade:
		return hdrLen + newCascadePlan(hashing.NewCoins(0), p, d).msgSize(), nil
	}
	return 0, fmt.Errorf("%w: unknown kind %d", ErrBadDigest, kind)
}
