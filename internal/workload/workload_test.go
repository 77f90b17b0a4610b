package workload

import (
	"testing"

	"sosr/internal/core"
	"sosr/internal/prng"
	"sosr/internal/setutil"
)

func TestPlantedDistanceExact(t *testing.T) {
	for _, d := range []int{0, 1, 7, 20} {
		alice, bob := PlantedSetsOfSets(uint64(d)*3+1, 16, 24, 1<<40, d)
		if got := core.Distance(alice, bob); got != d {
			t.Fatalf("planted d=%d, measured %d", d, got)
		}
		for _, cs := range alice {
			if !setutil.IsCanonical(cs) {
				t.Fatal("non-canonical child")
			}
		}
	}
}

func TestRandomDatabaseShape(t *testing.T) {
	db := RandomDatabase(1, 50, 64, 0.3, nil)
	if len(db.Rows) != 50 || db.Columns != 64 {
		t.Fatal("shape wrong")
	}
	seen := map[uint64]bool{}
	ones := 0
	for _, row := range db.Rows {
		ones += len(row)
		h := setutil.Hash(1, row)
		if seen[h] {
			t.Fatal("duplicate row")
		}
		seen[h] = true
		for _, c := range row {
			if c >= 64 {
				t.Fatal("column out of range")
			}
		}
	}
	density := float64(ones) / float64(50*64)
	if density < 0.2 || density > 0.4 {
		t.Fatalf("density %.2f far from 0.3", density)
	}
}

func TestFlipBitsDistance(t *testing.T) {
	src := prng.New(2)
	db := RandomDatabase(3, 40, 128, 0.25, nil)
	for _, k := range []int{1, 5, 12} {
		flipped := FlipBits(db, k, src)
		got := core.Distance(flipped.SetsOfSets(), db.SetsOfSets())
		if got != k {
			t.Fatalf("k=%d flips, distance %d", k, got)
		}
	}
}

func TestFlipBitsAvoidsDuplicateRows(t *testing.T) {
	src := prng.New(5)
	db := RandomDatabase(7, 30, 16, 0.4, nil)
	flipped := FlipBits(db, 25, src)
	seen := map[uint64]bool{}
	for _, row := range flipped.Rows {
		h := setutil.Hash(1, row)
		if seen[h] {
			t.Fatal("flip created duplicate row")
		}
		seen[h] = true
	}
}
