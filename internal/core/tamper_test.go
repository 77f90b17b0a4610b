package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Adversarial-channel tests: every protocol must either detect a corrupted
// transcript (return an error) or still deliver the exact answer — silent
// wrong recovery is the only forbidden outcome (§2's verification "ward").

// tamperedSession flips one pseudo-random byte (and bit) in every message.
func tamperedSession(seed uint64) *transport.Session {
	sess := transport.New()
	src := prng.New(seed)
	sess.SetTamper(func(label string, payload []byte) []byte {
		if len(payload) == 0 {
			return payload
		}
		i := src.Intn(len(payload))
		payload[i] ^= byte(1 << src.Intn(8))
		return payload
	})
	return sess
}

func TestTamperNeverSilentlyWrong(t *testing.T) {
	p := Params{S: 12, H: 16, U: 1 << 40}
	outer := prng.New(404)
	for trial := 0; trial < 40; trial++ {
		d := 1 + outer.Intn(6)
		alice, bob := makeInstance(outer.Uint64(), p.S, 12, p.U, d)
		coins := hashing.NewCoins(outer.Uint64())
		seed := outer.Uint64()
		runs := map[string]func() (*Result, error){
			"naive": func() (*Result, error) {
				return NaiveKnownD(tamperedSession(seed), coins, alice, bob, p, DHat(d, p.S))
			},
			"nested": func() (*Result, error) {
				return NestedKnownD(tamperedSession(seed), coins, alice, bob, p, d, DHat(d, p.S))
			},
			"cascade": func() (*Result, error) {
				return CascadeKnownD(tamperedSession(seed), coins, alice, bob, p, d)
			},
			"multiround": func() (*Result, error) {
				return MultiRoundKnownD(tamperedSession(seed), coins, alice, bob, p, d)
			},
		}
		for name, run := range runs {
			res, err := run()
			if err != nil {
				continue // detection is a correct outcome
			}
			if !setutil.EqualSetOfSets(res.Recovered, alice) {
				t.Fatalf("%s: tampering produced silent wrong recovery (trial %d)", name, trial)
			}
		}
	}
}

func TestTamperDetectedWithHighProbability(t *testing.T) {
	// Corrupting the bulk payload should usually be *detected*, not
	// absorbed: check the one-round protocols report errors most of the
	// time under per-message corruption.
	p := Params{S: 12, H: 16, U: 1 << 40}
	alice, bob := makeInstance(99, p.S, 12, p.U, 4)
	coins := hashing.NewCoins(3)
	detected := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		if _, err := NestedKnownD(tamperedSession(uint64(trial)), coins, alice, bob, p, 4, 4); err != nil {
			detected++
		}
	}
	if detected < trials*2/3 {
		t.Fatalf("only %d/%d corruptions detected", detected, trials)
	}
}

func TestTamperTruncation(t *testing.T) {
	// Truncated messages must error cleanly (no panics, no wrong results).
	p := Params{S: 8, H: 12, U: 1 << 40}
	alice, bob := makeInstance(55, p.S, 10, p.U, 3)
	coins := hashing.NewCoins(5)
	for cut := 1; cut <= 64; cut *= 4 {
		sess := transport.New()
		cut := cut
		sess.SetTamper(func(label string, payload []byte) []byte {
			if len(payload) > cut {
				return payload[:len(payload)-cut]
			}
			return payload
		})
		res, err := CascadeKnownD(sess, coins, alice, bob, p, 3)
		if err == nil && !setutil.EqualSetOfSets(res.Recovered, alice) {
			t.Fatalf("truncation by %d produced silent wrong recovery", cut)
		}
	}
}

func TestTamperEmptyPayloads(t *testing.T) {
	p := Params{S: 8, H: 12, U: 1 << 40}
	alice, bob := makeInstance(56, p.S, 10, p.U, 2)
	coins := hashing.NewCoins(6)
	sess := transport.New()
	sess.SetTamper(func(label string, payload []byte) []byte { return nil })
	if _, err := NaiveKnownD(sess, coins, alice, bob, p, 2); err == nil {
		t.Fatal("empty payload accepted")
	}
	sess2 := transport.New()
	sess2.SetTamper(func(label string, payload []byte) []byte { return nil })
	if _, err := MultiRoundKnownD(sess2, coins, alice, bob, p, 2); err == nil {
		t.Fatal("empty payload accepted by multiround")
	}
}

// TestStarFlagLie: the star flag is the peer's word, the table list Bob
// indexes is the plan's. A cascade message that announces T* where (p, d)
// derive none — with a well-formed star table of the right key width spliced
// in — or none where they derive one is a classified refusal before any table
// is parsed, with and without a sketch. The first used to index past the
// sketch's aggregates.
func TestStarFlagLie(t *testing.T) {
	coins := hashing.NewCoins(77)
	p, err := Params{S: 12, H: 16, U: 1 << 40}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := makeInstance(91, p.S, 12, p.U, 4)
	for _, tc := range []struct {
		name string
		d    int
		lie  func(msg []byte, star []byte) []byte
	}{
		{"star announced at d < h", 4, func(msg, star []byte) []byte {
			hash := msg[len(msg)-8:]
			out := append(bytes.Clone(msg[:len(msg)-9]), 1)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(star)))
			return append(append(out, star...), hash...)
		}},
		{"star denied at d >= h, table dropped", 32, func(msg, star []byte) []byte {
			hash := msg[len(msg)-8:]
			out := append(bytes.Clone(msg[:len(msg)-8-len(star)-4-1]), 0)
			return append(out, hash...)
		}},
		{"star denied at d >= h, table left", 32, func(msg, star []byte) []byte {
			out := bytes.Clone(msg)
			out[len(msg)-8-len(star)-4-1] = 0
			return out
		}},
	} {
		dHat := DHat(tc.d, p.S)
		msg, err := AliceMsg(DigestCascade, coins, alice, p, tc.d, dHat)
		if err != nil {
			t.Fatal(err)
		}
		codec := newNaiveCodec(p)
		table := iblt.New(iblt.CellsFor(4), codec.width, 0, coins.Seed("cascade/star", 0))
		for _, cs := range alice {
			table.Insert(codec.encode(cs))
		}
		lying := tc.lie(msg, table.Marshal())
		sk := mustSketch(t, DigestCascade, coins, bob, p, tc.d)
		for _, cached := range []*BobSketch{nil, sk} {
			res, err := ApplyMsgCached(DigestCascade, coins, lying, bob, p, tc.d, dHat, cached)
			if !errors.Is(err, ErrParentDecode) || res != nil {
				t.Errorf("%s (sketch %v): result %v, err %v; want a refusal wrapping ErrParentDecode", tc.name, cached != nil, res != nil, err)
			}
			if _, err := ApplyMsgCached(DigestCascade, coins, msg, bob, p, tc.d, dHat, cached); err != nil && errors.Is(err, ErrBadDigest) {
				t.Errorf("%s (sketch %v): the honest message is refused: %v", tc.name, cached != nil, err)
			}
		}
	}
}

// TestRunRefusesForeignSketch: a sketch with another table count than the
// plan's is ErrBadDigest, not an index.
func TestRunRefusesForeignSketch(t *testing.T) {
	coins := hashing.NewCoins(78)
	p, err := Params{S: 12, H: 16, U: 1 << 40}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := makeInstance(92, p.S, 12, p.U, 4)
	msg, err := AliceMsg(DigestCascade, coins, alice, p, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := newCascadeWork()
	res, err := w.run(mustPlan(t, DigestCascade, coins, p, 32, 0), msg, bob, mustSketch(t, DigestCascade, coins, bob, p, 4))
	if !errors.Is(err, ErrBadDigest) || res != nil {
		t.Fatalf("result %v, err %v; want ErrBadDigest", res != nil, err)
	}
}
