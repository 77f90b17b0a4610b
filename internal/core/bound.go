package core

import (
	"sosr/internal/hashing"
	"sosr/internal/iblt"
)

// The paper bounds every protocol's communication by the number of differing
// child sets times what one of them costs to describe (Theorems 3.3, 3.5,
// 3.7, 3.9), never by n. CellBytes and MultiRoundCellBytes give that second
// factor for a session's shape, so a server can audit its own payload against
// the bound — payload bytes ÷ (d̂ × cell bytes) is a small constant for a
// healthy encoder, the cells-per-key slack of the tables, whatever the
// protocol, and grows with s only if an encoder starts sizing by the data.

// cellOverhead is what a serialized parent-table cell carries besides its
// key: a 4-byte count and an 8-byte checksum.
const cellOverhead = 4 + 8

// childWidth is the width of a (child IBLT, hash) key with the given cell
// count for child sets of at most maxLen elements.
func childWidth(cells, maxLen int) int {
	return iblt.CellsSize(cells, iblt.WordWidth, 0, countBytesFor(maxLen)) + 8
}

// CellBytes returns the bytes of parent-table cells one differing child set
// occupies when it appears once in every table of a one-round protocol: one
// full encoding (naive), one (child IBLT, hash) key (nested), or one key per
// cascade level plus a full encoding when T* is present. It allocates
// nothing (the plan is derived on a pooled workspace). 0 for an unknown kind
// or an invalid shape.
func CellBytes(kind DigestKind, p Params, d int) int {
	w := getWork()
	defer putWork(w)
	if w.plan.init(kind, hashing.Coins{}, p, d, 0) != nil {
		return 0
	}
	n := 0
	for i := range w.plan.tables {
		n += w.plan.tables[i].width + cellOverhead
	}
	return n
}

// MultiRoundCellBytes is CellBytes for the multi-round protocol (Theorem
// 3.9): per differing child set Alice sends a cell of the hash table and at
// most one pair table sized for a whole child set on each side.
func MultiRoundCellBytes(p Params) int {
	return iblt.WordWidth + cellOverhead + iblt.SerializedSizeFor(iblt.CellsFor(mrPairBudgetCap(p)), iblt.WordWidth, 0)
}

// mrPairBudgetCap bounds a round-3 pair payload: two child sets differ in at
// most 2h elements.
func mrPairBudgetCap(p Params) int { return 2*p.H + 2 }
