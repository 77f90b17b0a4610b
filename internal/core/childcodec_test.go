package core

import (
	"slices"
	"testing"

	"sosr/internal/hashing"
)

// TestChildCountWidthBoundaries walks the child-size bound across the count
// width steps (1 byte below 256, 2 below 65 536, else 4). At each H a child of
// exactly H elements — the largest count any cell can reach — must encode,
// the payload must be exactly the plan's msgSize, and Bob must recover Alice's
// parent.
func TestChildCountWidthBoundaries(t *testing.T) {
	for _, tc := range []struct{ h, countBytes int }{
		{10, 1}, {255, 1}, {256, 2}, {65535, 2}, {65536, 4},
	} {
		if got := countBytesFor(tc.h); got != tc.countBytes {
			t.Fatalf("H=%d: count width %d, want %d", tc.h, got, tc.countBytes)
		}
		full := make([]uint64, tc.h)
		for i := range full {
			full[i] = uint64(3*i + 1)
		}
		edited := slices.Clone(full)
		edited[tc.h/2]++ // still canonical: the gap to the next element is 3
		alice := [][]uint64{{2, 4}, full, {7}}
		bob := [][]uint64{{2, 4}, edited, {7}}
		p := Params{S: 4, H: tc.h}
		const d = 2
		for _, kind := range []DigestKind{DigestNaive, DigestNested, DigestCascade} {
			coins := hashing.NewCoins(uint64(tc.h))
			msg, err := AliceMsg(kind, coins, alice, p, d, 0)
			if err != nil {
				t.Fatal(err)
			}
			if size := mustPlan(t, kind, coins, p, d, 0).msgSize(); len(msg) != size {
				t.Fatalf("H=%d kind %d: payload %d bytes, plan.msgSize %d", tc.h, kind, len(msg), size)
			}
			res, err := ApplyMsg(kind, coins, msg, bob, p, d, 0)
			if err != nil {
				t.Fatalf("H=%d kind %d: %v", tc.h, kind, err)
			}
			if Distance(res.Recovered, alice) != 0 {
				t.Fatalf("H=%d kind %d: Bob did not recover Alice's parent", tc.h, kind)
			}
			// The live digest and the cached Bob path follow the same width.
			inc, err := NewIncrementalDigest(kind, coins, p, d, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, cs := range alice {
				if err := inc.Add(cs); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(inc.SnapshotMsg(), msg) {
				t.Fatalf("H=%d kind %d: incremental snapshot differs from AliceMsg", tc.h, kind)
			}
			sk, err := NewBobSketch(kind, coins, bob, p, d, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ApplyMsgCached(kind, coins, msg, bob, p, d, 0, sk); err != nil {
				t.Fatalf("H=%d kind %d: cached apply: %v", tc.h, kind, err)
			}
		}
	}
}

// TestChildEncodingSize pins the layout the savings come from: cells ×
// (count + key sum + 4-byte checksum) + the 8-byte set hash, with no per-key
// header, the count as wide as h needs and the key sum as wide as u needs.
func TestChildEncodingSize(t *testing.T) {
	coins := hashing.NewCoins(1)
	for _, tc := range []struct {
		cells, h int
		u        uint64
		want     int
	}{
		{8, 10, 1 << 60, 8*(1+8+4) + 8},    // cascade level 1 and 2 at hot_sos_tcp's shape
		{16, 10, 1 << 60, 16*(1+8+4) + 8},  // level 3
		{32, 10, 1 << 60, 32*(1+8+4) + 8},  // level 4
		{8, 10, 1 << 32, 8*(1+4+4) + 8},    // churn_sos_disk's universe: 4-byte key sums
		{8, 10, 1<<32 + 1, 8*(1+5+4) + 8},  // one element more needs a fifth byte
		{8, 10, 256, 8*(1+1+4) + 8},        // 1-byte key sums
		{8, 300, 1 << 60, 8*(2+8+4) + 8},   // 2-byte counts
		{8, 70000, 1 << 60, 8*(4+8+4) + 8}, // 4-byte counts
		{9, 10, 1 << 60, 12*(1+8+4) + 8},   // cells round up to a multiple of k
	} {
		c := newChildCodec(coins, "test/child", 0, tc.cells, Params{H: tc.h, U: tc.u})
		if c.width != tc.want || len(c.encode([]uint64{1, 2, 3})) != tc.want {
			t.Fatalf("cells=%d H=%d u=%d: width %d, encoding %d, want %d",
				tc.cells, tc.h, tc.u, c.width, len(c.encode([]uint64{1, 2, 3})), tc.want)
		}
	}
}
