package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/internal/worktest"
)

// Unit tests for the plan arithmetic (Algorithm 2's levels, the key rule,
// cell schedules, message sizes) independent of full protocol runs.

func mustPlan(t testing.TB, kind DigestKind, coins hashing.Coins, p Params, d, dHat int) *plan {
	t.Helper()
	pl := new(plan)
	if err := pl.init(kind, coins, p, d, dHat); err != nil {
		t.Fatal(err)
	}
	return pl
}

// levels is a cascade plan's table count and whether its last table is keyed
// by whole child sets, which ends a cascade.
func (pl *plan) levels() (t int, whole bool) {
	return len(pl.tables), pl.tables[len(pl.tables)-1].full
}

// childLevels is the number of the plan's tables keyed by (child IBLT, hash)
// pairs.
func (pl *plan) childLevels() (n int) {
	for _, ts := range pl.tables {
		if !ts.full {
			n++
		}
	}
	return n
}

// requireKeys fails t unless kind's plan at (p, d, d̂) has a child-keyed table
// exactly when childKeyed says it should (a naive plan never has one), so a
// later change to the key rule cannot quietly move a test written for one key
// path onto the other.
func requireKeys(t testing.TB, kind DigestKind, p Params, d, dHat int, childKeyed bool) {
	t.Helper()
	if n := mustPlan(t, kind, hashing.NewCoins(0), p, d, dHat).childLevels(); (n > 0) != (childKeyed && kind != DigestNaive) {
		t.Fatalf("kind %d %+v d=%d: %d child-keyed tables, want child keys: %v", kind, p, d, n, childKeyed)
	}
}

// TestModelDocsKeys pins the key forms the model driver's docs base reaches
// (internal/worktest): naive, and nested at d = 24, plan one whole-set table;
// nested and cascade at d ≤ 2 key child sets by child IBLTs only; cascade at
// d = 24 plans child levels and then a whole-set level. A later key-rule
// change fails here instead of quietly moving the driver off a key path. A
// doubling row's first attempt is at d = 1.
func TestModelDocsKeys(t *testing.T) {
	kinds := map[string]DigestKind{"naive": DigestNaive, "nested": DigestNested, "cascade": DigestCascade, "auto": DigestCascade}
	for seed := uint64(1); seed <= 4; seed++ {
		docs, _, err := Params{}.Resolve(worktest.Docs(seed), Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range worktest.Rows {
			kind, ok := kinds[r.Protocol]
			if r.Base != "docs" || !ok || r.Fails == worktest.InvalidInstance {
				continue
			}
			p, d := docs, max(r.D, 1)
			p.S, p.H = cmp.Or(max(r.S, 0), p.S), cmp.Or(max(r.H, 0), p.H)
			requireKeys(t, kind, p, d, max(r.DHat, 0), kind == DigestCascade || d <= 2)
			if _, whole := mustPlan(t, kind, hashing.NewCoins(0), p, d, max(r.DHat, 0)).levels(); whole != (kind == DigestNaive || d > 2) {
				t.Fatalf("row %s at %+v: last table keyed by whole sets: %v", r.Name, p, whole)
			}
		}
	}
}

// TestCascadePlanLevels: t = ⌈log₂ min(d, h)⌉ levels, cut at the first whole-set
// level. At h = 100 and u = 2^30 a whole child set is 401 B, and a level-i
// child key is 9 B per child cell and an 8-byte hash: 80, 80, 152 and 296 B at
// levels 1–4 and 548 B at level 5, which is therefore a whole-set level. At
// h = 16 a whole set is 65 B, narrower than level 1's key.
func TestCascadePlanLevels(t *testing.T) {
	coins := hashing.NewCoins(1)
	cases := []struct {
		d, h      int
		wantT     int
		wantWhole bool
	}{
		{1, 100, 1, false},  // t = max(1, ceil(log2 1))
		{2, 100, 1, false},  // ceil(log2 2) = 1
		{3, 100, 2, false},  // ceil(log2 3) = 2
		{8, 100, 3, false},  // ceil(log2 8) = 3
		{9, 100, 4, false},  // ceil(log2 9) = 4
		{64, 100, 5, true},  // t = 6, cut at level 5
		{200, 100, 5, true}, // d ≥ h: t = ceil(log2 h) = 7, cut at level 5
		{1000, 16, 1, true}, // t = log2 16 = 4, cut at level 1
		{16, 16, 1, true},   // boundary d == h
	}
	for _, c := range cases {
		plan := mustPlan(t, DigestCascade, coins, Params{S: 64, H: c.h, U: 1 << 30}, c.d, 0)
		gotT, whole := plan.levels()
		if gotT != c.wantT {
			t.Errorf("d=%d h=%d: t=%d want %d", c.d, c.h, gotT, c.wantT)
		}
		if whole != c.wantWhole {
			t.Errorf("d=%d h=%d: whole=%v want %v", c.d, c.h, whole, c.wantWhole)
		}
		for i, ts := range plan.tables {
			if ts.full != (whole && i == gotT-1) {
				t.Errorf("d=%d: table %d of %d full=%v", c.d, i+1, len(plan.tables), ts.full)
			}
		}
	}
}

// TestKeyRule: over a grid of (s, h, u, d), no table of any plan keeps a
// child key at least as wide as a whole child set, a whole-set table is a
// plan's last, and a cascade at d ≥ h always ends in one.
func TestKeyRule(t *testing.T) {
	coins := hashing.NewCoins(4)
	shapes := 0
	for _, s := range []int{1, 12, 255, 256, 70000} {
		for _, h := range []int{1, 2, 3, 7, 10, 16, 100, 255, 256, 1024, 16384, 70000} {
			for _, u := range []uint64{0, 2, 16, 1000, 1 << 16, 1 << 32, 1<<40 + 1, 1 << 60} {
				for _, d := range []int{1, 2, 3, 5, 8, 16, 31, 64, 100, 257, 1024, 5000, 16384, 100000} {
					p := Params{S: s, H: h, U: u}
					whole := newNaiveCodec(mustPlan(t, DigestNaive, coins, p, d, 0).p).width
					for _, kind := range oneRoundKinds {
						pl := mustPlan(t, kind, coins, p, d, 0)
						for i, ts := range pl.tables {
							if !ts.full && ts.width >= whole || ts.full && i != len(pl.tables)-1 {
								t.Fatalf("kind %d %+v d=%d: table %d of %d: full=%v, key %d B, whole set %d B", kind, p, d, i+1, len(pl.tables), ts.full, ts.width, whole)
							}
						}
						if _, last := pl.levels(); kind == DigestCascade && d >= h && !last {
							t.Fatalf("%+v d=%d: the cascade ends in a child level", p, d)
						}
					}
					shapes++
				}
			}
		}
	}
	t.Logf("%d (s, h, u, d) shapes", shapes)
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
// needs, the key and a 4-byte checksum. A key is the narrower of a whole
// child set and a child-IBLT key — its cells (a count of the bytes h needs, a
// key sum of the bytes u needs, a 4-byte checksum) and an 8-byte set hash —
// and a cascade ends at its first whole-set key.
func cellBytesReference(kind DigestKind, p Params, d int) int {
	parent := func(key int) int { return countBytesFor(p.S) + key + 4 }
	whole := newNaiveCodec(p).width
	key := func(cells int) (int, bool) {
		child := iblt.RoundCells(cells, 0)*(countBytesFor(p.H)+sumBytesFor(p.U)+4) + 8
		return min(child, whole), child >= whole
	}
	switch kind {
	case DigestNaive:
		return parent(whole)
	case DigestNested:
		k, _ := key(iblt.CellsFor(d))
		return parent(k)
	}
	n := 0
	for i := 1; i <= max(bits.Len(uint(min(d, p.H)-1)), 1); i++ {
		k, full := key(iblt.CellsTight(1 << i))
		n += parent(k)
		if full {
			break
		}
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
// their elements lie below 2^32, so Resolve gives them u = 2^32. At h = 10 a
// whole child set is 41 B and the narrowest child key 80 B, so each message is
// one whole-set table in level 1's cells. Until protoVersion 6 the three were
// 65 941, 17 157 and 65 941 B; until protoVersion 7, when u = 0 still meant
// 2^60 and a listed child set took 4 + 8·h bytes, 50 036, 9 360 and 50 352 B;
// until protoVersion 8, when every level was keyed by child IBLTs, 35 436,
// 9 360 and 35 752 B.
func TestBenchShapeMsgSize(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
		d    int
		want int
	}{
		{"hot_sos_tcp", Params{S: 200, H: 10, U: 1 << 32}, 32, 6448},
		{"churn_sos_disk", Params{S: 2000, H: 10, U: 1 << 32}, 8, 2076},
		// Each of the two shards holds about 1 000 of the 2 000 children: any
		// s from 256 to 65 535 takes 2-byte parent counts.
		{"shard_sos_fanout (per shard)", Params{S: 1000, H: 10, U: 1 << 32}, 32, 6588},
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
