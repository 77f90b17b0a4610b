package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/prng"
	"sosr/internal/setutil"
)

// Unit tests for the plan arithmetic (Algorithm 2's levels and star inclusion,
// cell schedules, message sizes) independent of full protocol runs.

func mustPlan(t testing.TB, kind DigestKind, coins hashing.Coins, p Params, d, dHat int) *plan {
	t.Helper()
	pl := new(plan)
	if err := pl.init(kind, coins, p, d, dHat); err != nil {
		t.Fatal(err)
	}
	return pl
}

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
		plan := mustPlan(t, DigestCascade, coins, Params{S: 64, H: c.h, U: 1 << 30}, c.d, 0)
		gotT, star := plan.levels()
		if gotT != c.wantT {
			t.Errorf("d=%d h=%d: t=%d want %d", c.d, c.h, gotT, c.wantT)
		}
		if star != c.wantStar {
			t.Errorf("d=%d h=%d: star=%v want %v", c.d, c.h, star, c.wantStar)
		}
		for i, ts := range plan.tables {
			if ts.full != (star && i == gotT) {
				t.Errorf("d=%d: table %d of %d full=%v", c.d, i+1, len(plan.tables), ts.full)
			}
		}
	}
}

func TestCascadePlanCellsShrink(t *testing.T) {
	coins := hashing.NewCoins(2)
	plan := mustPlan(t, DigestCascade, coins, Params{S: 256, H: 512, U: 1 << 30}, 128, 0)
	levels, _ := plan.levels()
	prev := 1 << 30
	for i := 1; i < levels; i++ {
		c := plan.tables[i].cells
		if c > prev {
			t.Fatalf("parent cells grew at level %d: %d > %d", i+1, c, prev)
		}
		prev = c
	}
	// Child codec widths are non-decreasing (low levels share the minimum
	// cell floor) and grow geometrically overall.
	for i := 1; i < levels; i++ {
		if plan.tables[i].width < plan.tables[i-1].width {
			t.Fatalf("child width decreased at level %d", i+1)
		}
	}
	if plan.tables[levels-1].width <= 2*plan.tables[0].width {
		t.Fatal("top-level child width did not grow geometrically")
	}
}

// planShapes are the instance shapes the plan table below ranges over: d
// below, at and far above h; a naive key that is a bitmap and one that is a
// list; child counts of 1, 2 and 4 bytes.
var planShapes = []struct {
	name       string
	p          Params
	d, dHat    int
	bitmap     bool // the naive key is a universe bitmap
	countBytes int  // bytes of a child-IBLT cell count
}{
	{"d<h", Params{S: 32, H: 64, U: 1 << 30}, 10, 0, false, 1},
	{"d=h", Params{S: 32, H: 16, U: 1 << 30}, 16, 0, false, 1},
	{"d>>h", Params{S: 32, H: 8, U: 1 << 30}, 1000, 0, false, 1},
	{"d=1", Params{S: 8, H: 8}, 1, 0, false, 1},
	{"explicit-dhat", Params{S: 64, H: 12, U: 1 << 32}, 24, 7, false, 1},
	{"bitmap", Params{S: 16, H: 64, U: 128}, 6, 0, true, 1},
	{"count2", Params{S: 8, H: 300, U: 1 << 10}, 4, 0, true, 2},
	{"count4", Params{S: 8, H: 70000, U: 1 << 10}, 4, 0, true, 4},
}

// cellBytesReference is CellBytes as it was written out per kind before the
// plan: the closed forms the sum over plan tables must equal.
func cellBytesReference(kind DigestKind, p Params, d int) int {
	switch kind {
	case DigestNaive:
		return newNaiveCodec(p).width + cellOverhead
	case DigestNested:
		return childWidth(iblt.CellsFor(d), p.H) + cellOverhead
	}
	t, star := cascadeLevels(p, d)
	n := 0
	for i := 1; i <= t; i++ {
		n += childWidth(iblt.CellsTight(1<<i), p.H) + cellOverhead
	}
	if star {
		n += newNaiveCodec(p).width + cellOverhead
	}
	return n
}

// TestPlanTable: for every kind and shape, everything sized or laid out by
// the plan agrees with what is actually built from it. Every entry point is
// handed the shape as written — zero universe, zero d̂ — and resolves it in
// the plan.
func TestPlanTable(t *testing.T) {
	coins := hashing.NewCoins(3)
	for _, kind := range oneRoundKinds {
		for _, sh := range planShapes {
			name := fmt.Sprintf("kind %d %s", kind, sh.name)
			pl := mustPlan(t, kind, coins, sh.p, sh.d, sh.dHat)
			if again := mustPlan(t, kind, coins, sh.p, sh.d, sh.dHat); !reflect.DeepEqual(pl, again) {
				t.Errorf("%s: plans of equal inputs differ", name)
			}
			p := pl.p
			for i, ts := range pl.tables {
				if ts.full && ts.naive.bitmap != sh.bitmap || !ts.full && ts.child.countBytes != sh.countBytes {
					t.Errorf("%s: table %d: bitmap %v, child count width %d", name, i+1, ts.naive.bitmap, ts.child.countBytes)
				}
			}

			src := prng.New(uint64(kind)<<8 | uint64(len(sh.name)))
			live, err := NewIncrementalDigest(kind, coins, sh.p, sh.d, sh.dHat)
			if err != nil {
				t.Fatal(err)
			}
			var parent [][]uint64
			for step := 0; step < 24; step++ {
				if len(parent) > 0 && (src.Intn(3) == 0 || len(parent) == min(p.S, 12)) {
					i := src.Intn(len(parent))
					if err := live.Remove(parent[i]); err != nil {
						t.Fatal(err)
					}
					parent = slices.Delete(parent, i, i+1)
					continue
				}
				cs := freshChild(src, 1+src.Intn(min(p.H, 6)))
				for i := range cs {
					cs[i] %= p.U
				}
				cs = setutil.Canonical(cs)
				if live.Add(cs) == nil {
					parent = append(parent, cs)
				}
			}
			parent = setutil.CanonicalSets(parent)

			msg, err := AliceMsg(kind, coins, parent, sh.p, sh.d, sh.dHat)
			if err != nil {
				t.Fatal(err)
			}
			if len(msg) != pl.msgSize() {
				t.Errorf("%s: len(AliceMsg) = %d, plan.msgSize() = %d", name, len(msg), pl.msgSize())
			}
			if !bytes.Equal(live.SnapshotMsg(), msg) {
				t.Errorf("%s: SnapshotMsg differs from AliceMsg after an add/remove stream", name)
			}
			if res, err := ApplyMsg(kind, coins, msg, parent, sh.p, sh.d, sh.dHat); err != nil || !setutil.EqualSetOfSets(res.Recovered, parent) {
				t.Errorf("%s: ApplyMsg of the plan's message: %v", name, err)
			}

			sum := 0
			for _, ts := range pl.tables {
				sum += ts.width + 12
			}
			if got, ref := CellBytes(kind, sh.p, sh.d), cellBytesReference(kind, p, pl.d); got != sum || got != ref {
				t.Errorf("%s: CellBytes = %d, Σ(width+12) = %d, closed form %d", name, got, sum, ref)
			}
			sk, err := NewBobSketch(kind, coins, parent, sh.p, sh.d, sh.dHat)
			if err != nil {
				t.Fatal(err)
			}
			if len(sk.tables) != len(pl.tables) || len(live.tables) != len(pl.tables) || len(live.encs) != len(pl.tables) {
				t.Errorf("%s: %d sketch aggregates and %d digest tables for %d plan tables", name, len(sk.tables), len(live.tables), len(pl.tables))
			}
			for i, ts := range pl.tables {
				for _, tab := range []*iblt.Table{sk.tables[i], live.tables[i]} {
					// A table of the plan's hash count and seed is one Bob's
					// parse accepts.
					var back iblt.Table
					if tab.Cells() != iblt.RoundCells(ts.cells, 0) || tab.Width() != ts.width ||
						back.UnmarshalInto(tab.AppendMarshal(nil), iblt.DefaultHashCount, ts.seed) != nil {
						t.Errorf("%s: table %d is not the plan's shape", name, i+1)
					}
				}
			}
		}
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
	if h != setutil.Hash(codec.hash, cs) {
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
	r := childRecoverer{c: codec}
	h, err := r.decodeEnc(codec.encode(aliceSet))
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := r.recoverAgainst(h, bobSet)
	if !ok {
		t.Fatal("recovery failed")
	}
	if len(rec) != 4 || rec[3] != 4 {
		t.Fatalf("recovered %v", rec)
	}
	// A wrong candidate fails the hash check; empty fallback recovers
	// standalone sets.
	if _, ok := r.recoverAgainst(h, []uint64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000}); ok {
		t.Fatal("wrong candidate accepted")
	}
	rec2, ok := r.recoverFromCandidates(h, nil)
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
	got, err := small.appendDecode(nil, small.encode(cs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 90 {
		t.Fatalf("bitmap round trip %v", got)
	}
	got2, err := big.appendDecode(nil, big.encode([]uint64{5, 6}))
	if err != nil || len(got2) != 2 {
		t.Fatalf("list round trip %v %v", got2, err)
	}
	// Corrupt list length must be rejected.
	enc := big.encode([]uint64{5})
	enc[0] = 0xFF
	if _, err := big.appendDecode(nil, enc); err == nil {
		t.Fatal("corrupt count accepted")
	}
}
