package core

import (
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
)

// Unit tests for Algorithm 2's planning arithmetic (levels, star inclusion,
// cell schedules) independent of full protocol runs.

func TestCascadePlanLevels(t *testing.T) {
	coins := hashing.NewCoins(1)
	cases := []struct {
		d, h     int
		wantT    int
		wantStar bool
	}{
		{1, 100, 1, false},  // t = max(1, ceil(log2 1))
		{2, 100, 1, false},  // ceil(log2 2) = 1
		{3, 100, 2, false},  // ceil(log2 3) = 2
		{8, 100, 3, false},  // ceil(log2 8) = 3
		{9, 100, 4, false},  // ceil(log2 9) = 4
		{64, 100, 6, false}, // d < h
		{200, 100, 7, true}, // d ≥ h: t = ceil(log2 h) = 7, star on
		{1000, 16, 4, true}, // t = log2 16
		{16, 16, 4, true},   // boundary d == h
	}
	for _, c := range cases {
		plan := newCascadePlan(coins, Params{S: 64, H: c.h, U: 1 << 30}, c.d)
		if plan.t != c.wantT {
			t.Errorf("d=%d h=%d: t=%d want %d", c.d, c.h, plan.t, c.wantT)
		}
		if plan.star != c.wantStar {
			t.Errorf("d=%d h=%d: star=%v want %v", c.d, c.h, plan.star, c.wantStar)
		}
		if len(plan.level) != plan.t {
			t.Errorf("d=%d: %d codecs for %d levels", c.d, len(plan.level), plan.t)
		}
	}
}

func TestCascadePlanCellsShrink(t *testing.T) {
	coins := hashing.NewCoins(2)
	plan := newCascadePlan(coins, Params{S: 256, H: 512, U: 1 << 30}, 128)
	prev := 1 << 30
	for i := 2; i <= plan.t; i++ {
		c := plan.parentCells(i)
		if c > prev {
			t.Fatalf("parent cells grew at level %d: %d > %d", i, c, prev)
		}
		prev = c
	}
	// Child codec widths are non-decreasing (low levels share the minimum
	// cell floor) and grow geometrically overall.
	for i := 1; i < plan.t; i++ {
		if plan.level[i].width < plan.level[i-1].width {
			t.Fatalf("child width decreased at level %d", i+1)
		}
	}
	if plan.level[plan.t-1].width <= 2*plan.level[0].width {
		t.Fatal("top-level child width did not grow geometrically")
	}
}

func TestCascadePlanDeterministic(t *testing.T) {
	coins := hashing.NewCoins(3)
	a := newCascadePlan(coins, Params{S: 32, H: 64, U: 1 << 30}, 10)
	b := newCascadePlan(coins, Params{S: 32, H: 64, U: 1 << 30}, 10)
	if a.t != b.t || a.star != b.star {
		t.Fatal("plans differ across constructions")
	}
	for i := range a.level {
		if a.level[i].seed != b.level[i].seed || a.level[i].cells != b.level[i].cells {
			t.Fatalf("level %d codec differs", i+1)
		}
	}
	if a.parentSeed(1) != b.parentSeed(1) || a.starSeed() != b.starSeed() {
		t.Fatal("seeds differ")
	}
}

func TestChildCodecRoundTrip(t *testing.T) {
	coins := hashing.NewCoins(6)
	codec := newChildCodec(coins, "test/child", 0, 16, 8)
	cs := []uint64{5, 9, 1 << 40}
	enc := codec.encode(cs)
	if len(enc) != codec.width {
		t.Fatalf("encoding width %d != %d", len(enc), codec.width)
	}
	var tab iblt.Table
	h, err := codec.decodeInto(&tab, enc)
	if err != nil {
		t.Fatal(err)
	}
	if h != codec.setHash(cs) {
		t.Fatal("hash mismatch")
	}
	// The embedded IBLT holds exactly the child elements.
	added, removed, err := tab.DecodeUint64()
	if err != nil || len(removed) != 0 || len(added) != 3 {
		t.Fatalf("embedded IBLT decode: %v %v %v", added, removed, err)
	}
}

func TestChildCodecRecoverAgainst(t *testing.T) {
	coins := hashing.NewCoins(5)
	codec := newChildCodec(coins, "test/child", 0, 16, 8)
	aliceSet := []uint64{1, 2, 3, 4}
	bobSet := []uint64{1, 2, 3, 9}
	var ta iblt.Table
	h, err := codec.decodeInto(&ta, codec.encode(aliceSet))
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := codec.recoverAgainst(&ta, h, bobSet)
	if !ok {
		t.Fatal("recovery failed")
	}
	if len(rec) != 4 || rec[3] != 4 {
		t.Fatalf("recovered %v", rec)
	}
	// A wrong candidate fails the hash check; empty fallback recovers
	// standalone sets.
	if _, ok := codec.recoverAgainst(&ta, h, []uint64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000}); ok {
		t.Fatal("wrong candidate accepted")
	}
	rec2, ok := codec.recoverFromCandidates(&ta, h, nil)
	if !ok || len(rec2) != 4 {
		t.Fatal("empty-set fallback failed")
	}
}

func TestNaiveCodecChoice(t *testing.T) {
	// Small universe: bitmap; big universe: list.
	small := newNaiveCodec(Params{S: 4, H: 64, U: 128})
	if !small.bitmap || small.width != 16 {
		t.Fatalf("small-universe codec: bitmap=%v width=%d", small.bitmap, small.width)
	}
	big := newNaiveCodec(Params{S: 4, H: 4, U: 1 << 40})
	if big.bitmap {
		t.Fatal("big universe chose bitmap")
	}
	if big.width != 4+8*4 {
		t.Fatalf("list width %d", big.width)
	}
	// Round trips.
	cs := []uint64{3, 17, 90}
	got, err := small.decode(small.encode(cs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 90 {
		t.Fatalf("bitmap round trip %v", got)
	}
	got2, err := big.decode(big.encode([]uint64{5, 6}))
	if err != nil || len(got2) != 2 {
		t.Fatalf("list round trip %v %v", got2, err)
	}
	// Corrupt list length must be rejected.
	enc := big.encode([]uint64{5})
	enc[0] = 0xFF
	if _, err := big.decode(enc); err == nil {
		t.Fatal("corrupt count accepted")
	}
}
