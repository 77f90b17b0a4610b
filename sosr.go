// Package sosr is a Go implementation of "Reconciling Graphs and Sets of
// Sets" (Mitzenmacher & Morgan, PODS 2018): one-way reconciliation protocols
// that let a party holding a slightly different copy of structured data —
// a set, a set of sets, an unlabeled graph, or a rooted forest — recover the
// other party's data with communication proportional to the difference, not
// the data size.
//
// The top-level entry points are:
//
//   - ReconcileSets / ReconcileMultisets — classic set reconciliation
//     (IBLT-based, Corollary 2.2/3.2; characteristic-polynomial based,
//     Theorem 2.3).
//   - ReconcileSetsOfSets — the paper's primary contribution, with four
//     selectable protocols (Theorems 3.3, 3.5, 3.7, 3.9 and their unknown-d
//     variants).
//   - ReconcileGraphs — random-graph reconciliation via the degree-ordering
//     (§5.1) or degree-neighborhood (§5.2) signature schemes, or the
//     exponential tiny-graph polynomial protocol of §4 (Theorem 4.3);
//     GraphsIsomorphic is that protocol at d = 0 (Theorem 4.1).
//   - ReconcileForests — rooted-forest reconciliation (§6).
//
// All protocols are one-way: "Bob" (the second argument) ends up with
// "Alice's" data. They simulate both parties in-process while forcing every
// cross-party byte through a measured transport, so the Stats on each result
// are honest serialized-communication numbers. Both parties share public
// coins derived from Config.Seed. Package sosrnet serves the same protocols
// over TCP: its client and server exchange exactly the recorded bytes plus an
// itemised framing.
//
// Elements are uint64 values below 2^60 (the universe embeds into
// GF(2^61−1) with reserved space for the characteristic-polynomial
// evaluation points).
package sosr

import (
	"sosr/internal/transport"
)

// MaxElement is the largest allowed universe element (2^60 - 1).
const MaxElement uint64 = 1<<60 - 1

// Stats summarizes a protocol run's communication: Rounds, TotalBytes,
// AliceBytes, BobBytes, Messages. Rounds counts messages, with consecutive
// same-sender messages merged (the paper's "in parallel" convention); bytes are
// fully-serialized wire sizes. It is the measured transport's own summary, not
// a copy of it.
type Stats = transport.Stats
