package core

import (
	"bytes"
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

// TestStarFlagLie: where a cascade ends is the plan's, never the peer's
// (until protoVersion 6 the message carried a T* flag; since protoVersion 8 a
// cascade ends at its first whole-set level, where T* was). At h = 100 and
// u = 2^40 a whole child set is 501 B, narrower than a level-5 child key, so
// d = 4 derives two child levels and d = 128 four child levels and a
// whole-set fifth. A message that carries that fifth level's cells where
// (p, d) derive none — a well-formed table of Alice's children spliced in —
// or drops them where they derive one, or still carries protoVersion 5's flag
// byte, is a classified refusal before any table is loaded, with and without
// a sketch. The first used to index past the sketch's aggregates.
func TestStarFlagLie(t *testing.T) {
	coins := hashing.NewCoins(77)
	p, err := Params{S: 12, H: 100, U: 1 << 40}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := makeInstance(91, p.S, 12, p.U, 4)
	pl := mustPlan(t, DigestCascade, coins, p, 128, 0)
	ts := pl.tables[len(pl.tables)-1]
	if n, whole := pl.levels(); n != 5 || !whole {
		t.Fatalf("d = 128: %d levels, the last whole-set %v; want 5, true", n, whole)
	}
	level := iblt.New(ts.cells, ts.width, 0, ts.seed)
	for _, cs := range alice {
		level.Insert(ts.naive.encode(cs))
	}
	cells := level.AppendCells(nil, pl.countBytes, ts.width)
	for _, tc := range []struct {
		name string
		d    int
		lie  func(msg []byte) []byte
	}{
		{"whole-set level sent at d < h", 4, func(msg []byte) []byte {
			hash := msg[len(msg)-8:]
			out := append(bytes.Clone(msg[:len(msg)-8]), cells...)
			return append(out, hash...)
		}},
		{"whole-set level dropped at d >= h", 128, func(msg []byte) []byte {
			hash := msg[len(msg)-8:]
			return append(bytes.Clone(msg[:len(msg)-8-len(cells)]), hash...)
		}},
		{"version 5 star flag at d >= h", 128, func(msg []byte) []byte {
			at := len(msg) - 8 - len(cells)
			return append(append(bytes.Clone(msg[:at]), 1), msg[at:]...)
		}},
	} {
		dHat := DHat(tc.d, p.S)
		msg, err := AliceMsg(DigestCascade, coins, alice, p, tc.d, dHat)
		if err != nil {
			t.Fatal(err)
		}
		lying := tc.lie(msg)
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

// TestRunRefusesForeignSketch: a sketch whose tables differ from the plan's in
// shape is ErrBadDigest, not an index or a failed subtraction. At h = 16 both
// plans are one whole-set table, of 28 and 60 cells.
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

// TestGiveUpKeepsCause: a replicated or a doubling run whose every attempt is
// tampered gives up with ErrGaveUp and still carries the class of the last
// attempt's failure.
func TestGiveUpKeepsCause(t *testing.T) {
	p := Params{S: 12, H: 16, U: 1 << 40}
	alice, bob := makeInstance(57, p.S, 12, p.U, 3)
	coins := hashing.NewCoins(7)
	runs := map[string]func(sess *transport.Session) (*Result, error){
		"replicated": func(sess *transport.Session) (*Result, error) {
			return Replicated(sess, coins, 3, func(sess *transport.Session, c hashing.Coins) (*Result, error) {
				return CascadeKnownD(sess, c, alice, bob, p, 3)
			})
		},
		"doubling": func(sess *transport.Session) (*Result, error) { return CascadeUnknownD(sess, coins, alice, bob, p) },
	}
	for _, tc := range []struct {
		name   string
		cause  error
		tamper func(label string, payload []byte) []byte
	}{
		{"payload emptied", ErrParentDecode, func(string, []byte) []byte { return nil }},
		{"hash flipped", ErrVerify, func(_ string, payload []byte) []byte {
			if len(payload) > 0 {
				payload[len(payload)-1] ^= 1 // Alice's message ends with her parent hash
			}
			return payload
		}},
	} {
		for name, run := range runs {
			sess := transport.New()
			sess.SetTamper(tc.tamper)
			if _, err := run(sess); !errors.Is(err, ErrGaveUp) || !errors.Is(err, tc.cause) {
				t.Errorf("%s, %s: err %v; want ErrGaveUp wrapping %v", name, tc.name, err, tc.cause)
			}
		}
	}
}
