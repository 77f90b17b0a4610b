// Package workload generates the paper's motivating inputs (§1): planted
// sets-of-sets instances with exact ground-truth distance, binary relational
// databases whose unlabeled rows are sets of column indices. The experiment
// harness and examples build on these.
package workload

import (
	"sosr/internal/prng"
	"sosr/internal/setutil"
)

// PlantedSetsOfSets builds Bob's parent set of s child sets (~h/2..h
// elements each from [0, u)) and Alice's copy with exactly d element edits
// spread over random child sets. Child sets are disjoint random subsets of a
// large universe, so the minimum-difference matching distance equals d.
func PlantedSetsOfSets(seed uint64, s, h int, u uint64, d int) (alice, bob [][]uint64) {
	src := prng.New(seed)
	used := map[uint64]bool{}
	next := func() uint64 {
		for {
			x := src.Uint64() % u
			if !used[x] {
				used[x] = true
				return x
			}
		}
	}
	bob = make([][]uint64, s)
	for i := range bob {
		size := h/2 + src.Intn(h/2+1)
		if size < 1 {
			size = 1
		}
		cs := make([]uint64, 0, size)
		for j := 0; j < size; j++ {
			cs = append(cs, next())
		}
		bob[i] = setutil.Canonical(cs)
	}
	alice = setutil.CloneSets(bob)
	removed := map[int]int{}
	for e := 0; e < d; e++ {
		i := src.Intn(s)
		if e%2 == 0 || len(alice[i]) <= 1+removed[i] {
			alice[i] = setutil.Canonical(append(setutil.Clone(alice[i]), next()))
		} else {
			idx := src.Intn(len(alice[i]))
			cs := setutil.Clone(alice[i])
			alice[i] = append(cs[:idx], cs[idx+1:]...)
			removed[i]++
		}
	}
	return alice, bob
}

// Database is a binary relational database with labeled columns and
// unlabeled rows: row i is the set of column indices holding a 1 (§1's
// "a row database entry can equivalently be thought of as a set of elements
// from the universe of columns").
type Database struct {
	Columns int
	Rows    [][]uint64 // canonical column-index sets
}

// RandomDatabase samples rows with the given 1-density. Duplicate rows are
// rejected and resampled (parent sets must be sets).
func RandomDatabase(seed uint64, rows, columns int, density float64, src *prng.Source) *Database {
	if src == nil {
		src = prng.New(seed)
	}
	db := &Database{Columns: columns}
	seen := map[uint64]bool{}
	for len(db.Rows) < rows {
		var row []uint64
		for c := 0; c < columns; c++ {
			if src.Float64() < density {
				row = append(row, uint64(c))
			}
		}
		row = setutil.Canonical(row)
		h := setutil.Hash(0xdb, row)
		if seen[h] {
			continue
		}
		seen[h] = true
		db.Rows = append(db.Rows, row)
	}
	return db
}

// FlipBits returns a copy of db with exactly k random bit flips applied to
// random rows (the §1 database reconciliation model: "two databases in
// which a total of d bits have been flipped"). Flips that would create a
// duplicate row are re-drawn.
func FlipBits(db *Database, k int, src *prng.Source) *Database {
	out := &Database{Columns: db.Columns, Rows: setutil.CloneSets(db.Rows)}
	hashes := map[uint64]int{}
	for i, row := range out.Rows {
		hashes[setutil.Hash(0xdb, row)] = i
	}
	for done := 0; done < k; {
		i := src.Intn(len(out.Rows))
		c := uint64(src.Intn(db.Columns))
		row := out.Rows[i]
		var flipped []uint64
		if setutil.Contains(row, c) {
			flipped = setutil.ApplyDiff(row, nil, []uint64{c})
		} else {
			flipped = setutil.ApplyDiff(row, []uint64{c}, nil)
		}
		h := setutil.Hash(0xdb, flipped)
		if j, dup := hashes[h]; dup && j != i {
			continue
		}
		delete(hashes, setutil.Hash(0xdb, row))
		hashes[h] = i
		out.Rows[i] = flipped
		done++
	}
	return out
}

// SetsOfSets exposes the database as a parent set for reconciliation.
func (db *Database) SetsOfSets() [][]uint64 { return db.Rows }
