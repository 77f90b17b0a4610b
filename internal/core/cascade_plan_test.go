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

// levels splits a cascade plan's tables into its t cascading levels and
// whether T* closes them.
func (pl *plan) levels() (t int, star bool) {
	star = pl.tables[len(pl.tables)-1].full
	if star {
		return len(pl.tables) - 1, true
	}
	return len(pl.tables), false
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
// list; child counts of 1, 2 and 4 bytes; parent counts of 1 and 2 bytes;
// child key sums of 1 to 8 bytes.
var planShapes = []struct {
	name        string
	p           Params
	d, dHat     int
	bitmap      bool // the naive key is a universe bitmap
	countBytes  int  // bytes of a child-IBLT cell count
	sumBytes    int  // bytes of a child-IBLT key sum
	parentCount int  // bytes of a parent-table cell count
}{
	{"d<h", Params{S: 32, H: 64, U: 1 << 30}, 10, 0, false, 1, 4, 1},
	{"d=h", Params{S: 32, H: 16, U: 1 << 30}, 16, 0, false, 1, 4, 1},
	{"d>>h", Params{S: 32, H: 8, U: 1 << 30}, 1000, 0, false, 1, 4, 1},
	{"d=1", Params{S: 8, H: 8}, 1, 0, false, 1, 8, 1},
	{"explicit-dhat", Params{S: 64, H: 12, U: 1 << 32}, 24, 7, false, 1, 4, 1},
	{"bitmap", Params{S: 16, H: 64, U: 128}, 6, 0, true, 1, 1, 1},
	{"count2", Params{S: 8, H: 300, U: 1 << 10}, 4, 0, true, 2, 2, 1},
	{"count4", Params{S: 8, H: 70000, U: 1 << 10}, 4, 0, true, 4, 2, 1},
	{"parents2", Params{S: 300, H: 8, U: 1<<40 + 1}, 6, 0, false, 1, 6, 2},
}

// cellBytesReference is CellBytes written out per kind: the closed forms the
// sum over plan tables must equal. A parent cell is a count of the bytes S
// needs, the key and a 4-byte checksum; a child-IBLT key is its cells (a
// count of the bytes h needs, a key sum of the bytes u needs, a 4-byte
// checksum) and an 8-byte set hash.
func cellBytesReference(kind DigestKind, p Params, d int) int {
	parent := func(key int) int { return countBytesFor(p.S) + key + 4 }
	child := func(cells int) int {
		return parent(iblt.RoundCells(cells, 0)*(countBytesFor(p.H)+sumBytesFor(p.U)+4) + 8)
	}
	switch kind {
	case DigestNaive:
		return parent(newNaiveCodec(p).width)
	case DigestNested:
		return child(iblt.CellsFor(d))
	}
	t, star := cascadeLevels(p, d)
	n := 0
	for i := 1; i <= t; i++ {
		n += child(iblt.CellsTight(1 << i))
	}
	if star {
		n += parent(newNaiveCodec(p).width)
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
				if ts.full && ts.naive.bitmap != sh.bitmap || !ts.full && (ts.child.countBytes != sh.countBytes || ts.child.sumBytes != sh.sumBytes) {
					t.Errorf("%s: table %d: bitmap %v, child count width %d, key-sum width %d", name, i+1, ts.naive.bitmap, ts.child.countBytes, ts.child.sumBytes)
				}
			}
			if pl.countBytes != sh.parentCount {
				t.Errorf("%s: parent count width %d, want %d", name, pl.countBytes, sh.parentCount)
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

			// One cell per table is what CellBytes counts; the message is
			// every table's cells and the parent hash.
			sum, size := 0, 8
			for _, ts := range pl.tables {
				cell := pl.countBytes + ts.width + 4
				sum += cell
				size += iblt.RoundCells(ts.cells, 0) * cell
			}
			if got, ref := CellBytes(kind, sh.p, sh.d), cellBytesReference(kind, p, pl.d); got != sum || got != ref {
				t.Errorf("%s: CellBytes = %d, Σ one cell = %d, closed form %d", name, got, sum, ref)
			}
			if pl.msgSize() != size {
				t.Errorf("%s: msgSize = %d, Σ cells × cell bytes + 8 = %d", name, pl.msgSize(), size)
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
					// A table of the plan's shape, hash count and seed is one
					// Bob's load can subtract.
					var back iblt.Table
					back.Reshape(ts.cells, ts.width, 0, ts.seed)
					if back.Subtract(tab) != nil {
						t.Errorf("%s: table %d is not the plan's shape", name, i+1)
					}
				}
			}
		}
	}
}

func TestChildCodecRoundTrip(t *testing.T) {
	coins := hashing.NewCoins(6)
	codec := newChildCodec(coins, "test/child", 0, 16, Params{H: 8, U: 1 << 60})
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
	codec := newChildCodec(coins, "test/child", 0, 16, Params{H: 8, U: 1 << 60})
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
	if big.width != 1+5*4 { // a 1-byte length (h < 256), 5-byte elements (u = 2^40)
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

// TestBenchShapeMsgSize pins the cascade message of the three sets-of-sets
// benchmark shapes to the layout formula — per table, cells × (parent count +
// key + 4-byte checksum), and the 8-byte parent hash — and holds CellBytes,
// the bound audit's per-key factor, to the same cells: one cell of each
// table, as the message lays them out. Hot and shard declare no universe, and
// their elements lie below 2^32, so Resolve gives them u = 2^32. Until
// protoVersion 6 the three were 65 941, 17 157 and 65 941 B; until
// protoVersion 7, when u = 0 still meant 2^60 and a listed child set took 4 +
// 8·h bytes, 50 036, 9 360 and 50 352 B.
func TestBenchShapeMsgSize(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
		d    int
		want int
	}{
		{"hot_sos_tcp", Params{S: 200, H: 10, U: 1 << 32}, 32, 35436},
		{"churn_sos_disk", Params{S: 2000, H: 10, U: 1 << 32}, 8, 9360},
		// Each of the two shards holds about 1 000 of the 2 000 children: any
		// s from 256 to 65 535 takes 2-byte parent counts.
		{"shard_sos_fanout (per shard)", Params{S: 1000, H: 10, U: 1 << 32}, 32, 35752},
	} {
		pl := mustPlan(t, DigestCascade, hashing.NewCoins(1), tc.p, tc.d, 0)
		p := pl.p
		formula, cells := 8, 0
		for _, ts := range pl.tables {
			key := newNaiveCodec(p).width
			if !ts.full {
				key = iblt.RoundCells(ts.child.cells, 0)*(countBytesFor(p.H)+sumBytesFor(p.U)+4) + 8
			}
			cell := countBytesFor(p.S) + key + 4
			formula += iblt.RoundCells(ts.cells, 0) * cell
			cells += cell
		}
		if got := pl.msgSize(); got != tc.want || got != formula {
			t.Errorf("%s: msgSize %d, formula %d, pinned %d", tc.name, got, formula, tc.want)
		}
		if got := CellBytes(DigestCascade, tc.p, tc.d); got != cells {
			t.Errorf("%s: CellBytes %d, the message's cells %d", tc.name, got, cells)
		}
	}
}
