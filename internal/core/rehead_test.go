package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
)

// Every IBLT Bob parses has the hash count and seed the public coins fix. A
// peer that re-heads a valid table with k = cells would have each of Bob's
// children hashed k times before anything failed, so each parse of a table
// that carries a header refuses one that is not the plan's; a one-round
// plan's tables carry none, and its message is refused unless it is exactly
// the plan's length.

// reheaded returns copies of buf whose IBLT header at buf[at:] declares
// k = cells, or a foreign seed.
func reheaded(buf []byte, at int) map[string][]byte {
	kCells := bytes.Clone(buf)
	copy(kCells[at:at+4], buf[at+4:at+8])
	foreign := bytes.Clone(buf)
	foreign[at+12] ^= 1
	return map[string][]byte{"k = cells": kCells, "foreign seed": foreign}
}

// refusedAtParse reports whether err is UnmarshalInto's refusal of a header
// that is not the plan's.
func refusedAtParse(err error) bool {
	return err != nil && strings.Contains(err.Error(), "iblt: table of k=")
}

// TestPlanLoadRefusesReheadedTable: a one-round message whose table carries
// a shape header (protoVersion 5's layout, any k or seed), or is a byte short
// or long, is refused for its length as ErrParentDecode before any cell is
// loaded.
func TestPlanLoadRefusesReheadedTable(t *testing.T) {
	coins := hashing.NewCoins(61)
	p := Params{S: 12, H: 16, U: 1 << 40}
	alice, bob := makeInstance(62, p.S, p.H, p.U, 4)
	dHat := DHat(4, p.S)
	msg, err := AliceMsg(DigestNaive, coins, alice, p, 4, dHat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyMsg(DigestNaive, coins, msg, bob, p, 4, dHat); err != nil {
		t.Fatal(err)
	}
	headed := append(make([]byte, 20), msg...)
	binary.LittleEndian.PutUint32(headed, iblt.DefaultHashCount)
	binary.LittleEndian.PutUint32(headed[4:], uint32(mustPlan(t, DigestNaive, coins, p, 4, dHat).tables[0].cells))
	bad := reheaded(headed, 0)
	bad["plan's header"] = headed
	bad["short"], bad["long"] = msg[:len(msg)-1], append(bytes.Clone(msg), 0)
	for name, b := range bad {
		if _, err := ApplyMsg(DigestNaive, coins, b, bob, p, 4, dHat); !errors.Is(err, ErrParentDecode) || !strings.Contains(err.Error(), "the plan's is") {
			t.Errorf("%s: err = %v, want the length refused", name, err)
		}
	}
}

// mrRounds is Theorem 3.9's first three rounds on a small instance.
type mrRounds struct {
	coins            hashing.Coins
	alice, bob       [][]uint64
	p                Params
	msg1, msg2, msg3 []byte
	st               *MRBobState
}

// multiRoundRounds runs the rounds; dTotal = 1 routes every pair to an IBLT.
func multiRoundRounds(t *testing.T) *mrRounds {
	t.Helper()
	r := &mrRounds{coins: hashing.NewCoins(63), p: Params{S: 12, H: 16, U: 1 << 40}}
	r.alice, r.bob = makeInstance(64, r.p.S, r.p.H, r.p.U, 4)
	r.msg1 = MRAlice1(r.coins, r.alice, DHat(4, r.p.S))
	var err error
	if r.msg2, r.st, err = MRBob2(r.coins, r.bob, r.p, r.msg1); err != nil {
		t.Fatal(err)
	}
	if r.msg3, _, err = MRAlice3(r.coins, r.alice, r.p, 1, r.msg2); err != nil {
		t.Fatal(err)
	}
	if r.msg3[4] != 0 {
		t.Fatal("round 3 opens with evaluations, not a pair IBLT")
	}
	if _, err := MRBobFinish(r.coins, r.bob, r.st, r.msg3); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMRBob2RefusesReheadedTable(t *testing.T) {
	r := multiRoundRounds(t)
	for name, bad := range reheaded(r.msg1, 0) {
		if _, _, err := MRBob2(r.coins, r.bob, r.p, bad); !refusedAtParse(err) {
			t.Errorf("%s: err = %v, want the header refused", name, err)
		}
	}
}

func TestMRAlice3RefusesReheadedTable(t *testing.T) {
	r := multiRoundRounds(t)
	for name, bad := range reheaded(r.msg2, 4) { // behind its frame length
		if _, _, err := MRAlice3(r.coins, r.alice, r.p, 1, bad); !refusedAtParse(err) {
			t.Errorf("%s: err = %v, want the header refused", name, err)
		}
	}
}

func TestMRBobFinishRefusesReheadedPairTable(t *testing.T) {
	r := multiRoundRounds(t)
	// The first entry: count, kind, match index, frame length, then the table.
	at := 4 + 1 + 4 + 4
	if n := binary.LittleEndian.Uint32(r.msg3[at-4:]); n < 20 {
		t.Fatalf("pair frame of %d bytes", n)
	}
	for name, bad := range reheaded(r.msg3, at) {
		if _, err := MRBobFinish(r.coins, r.bob, r.st, bad); !refusedAtParse(err) {
			t.Errorf("%s: err = %v, want the header refused", name, err)
		}
	}
}
