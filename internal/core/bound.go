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

// CellBytes returns the bytes of parent-table cells one differing child set
// occupies when it appears once in every table of a one-round protocol: one
// key per table, a whole child set or, where narrower, a (child IBLT, hash)
// pair — one for naive and nested, one per level for cascade. It allocates
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
		n += w.plan.tableBytes(i, 1, 1)
	}
	return n
}

// MultiRoundCellBytes is CellBytes for the multi-round protocol (Theorem
// 3.9): per differing child set Alice sends a cell of the hash table and at
// most one pair table sized for a whole child set on each side, both
// Marshal'd (4-byte counts).
func MultiRoundCellBytes(p Params) int {
	return iblt.CellsSize(1, iblt.WordWidth, 1, 4) + iblt.SerializedSizeFor(iblt.CellsFor(mrPairBudgetCap(p)), iblt.WordWidth, 0)
}

// mrPairBudgetCap bounds a round-3 pair payload: two child sets differ in at
// most 2h elements.
func mrPairBudgetCap(p Params) int { return 2*p.H + 2 }
