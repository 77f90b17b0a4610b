package graphrecon

import (
	"fmt"
	"slices"

	"sosr/internal/core"
	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// The §5.2 degree-neighborhood scheme. A vertex's signature D_v is the
// multiset of the degrees (at most m ≈ pn) of its neighbors. Signatures are
// reconciled as a set of multisets; conforming vertices stay close while
// non-conforming pairs stay far whenever the base graph's degree
// neighborhoods are sufficiently disjoint (Definition 5.4, Theorem 5.5), so
// closest-signature matching yields a conforming labeling and the labeled
// edges reconcile as usual.
//
// Threshold note (documented deviation): the paper claims a conforming pair
// satisfies |D_vA ⊕ D_vB| ≤ 2d, counting "one or two" element changes per
// signature per edge flip. A vertex adjacent to both endpoints of a flipped
// edge changes by up to 4 elements per flip, so this implementation uses the
// conservative conforming threshold 4d and correspondingly requires the base
// graph to be (m, 8d+1)-disjoint — the same protocol with safe constants.

// NeighborhoodParams configures the §5.2 scheme.
type NeighborhoodParams struct {
	// M is the degree threshold (the paper's pn): only neighbor degrees ≤ M
	// enter a signature.
	M int
	// D bounds the total number of edge changes between the two graphs.
	D int
}

// AllDegreeSignatures computes every vertex's signature, as capacity-limited
// sub-slices of one arena.
func AllDegreeSignatures(g *graph.Graph, m int) [][]uint64 {
	degs := g.Degrees()
	total := 0
	for _, d := range degs {
		total += d
	}
	arena := make([]uint64, 0, total)
	out := make([][]uint64, g.N)
	for v := 0; v < g.N; v++ {
		at := len(arena)
		g.EachNeighbor(v, func(w int) {
			if degs[w] <= m {
				arena = append(arena, uint64(degs[w]))
			}
		})
		slices.Sort(arena[at:])
		out[v] = arena[at:len(arena):len(arena)]
	}
	return out
}

// NeighborhoodRecon runs the Theorem 5.6 protocol: signatures reconciled as
// a set of multisets via the cascading protocol, closest-signature matching
// with the 2d threshold, and labeled-edge reconciliation in the same round.
// Returns Bob's copy of Alice's graph under Alice's labeling.
func NeighborhoodRecon(sess *transport.Session, coins hashing.Coins, ga, gb *graph.Graph, p NeighborhoodParams) (*graph.Graph, transport.Stats, error) {
	if ga.N != gb.N {
		return nil, transport.Stats{}, fmt.Errorf("graphrecon: vertex count mismatch")
	}
	// Both parties contribute their largest packed signature to the shared
	// instance shape (a split deployment negotiates this in its handshake);
	// each side encodes its signatures exactly once.
	sideA, err := NeighborhoodEncode(ga, p.M)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	sideB, err := NeighborhoodEncode(gb, p.M)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	maxSig := sideA.MaxSig
	if sideB.MaxSig > maxSig {
		maxSig = sideB.MaxSig
	}

	// --- Alice ---
	msgs, err := NeighborhoodAlice(coins, ga, p, sideA, maxSig)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	sigMsg := sess.Send(transport.Alice, "cascade-iblts", msgs.Sig)
	edgeMsg := sess.Send(transport.Alice, "edge-iblt", msgs.Edges)

	// --- Bob ---
	recovered, err := NeighborhoodApply(coins, gb, p, sideB, maxSig, sigMsg, edgeMsg)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	return recovered, sess.Stats(), nil
}

// NbrSide is one party's encoded degree-neighborhood signatures: the raw
// multisets, their packed-set forms, and the largest packed size (the
// quantity both sides combine by max to agree on the instance shape).
type NbrSide struct {
	Sigs   [][]uint64
	Packed [][]uint64
	MaxSig int
}

// NeighborhoodEncode computes a party's NbrSide once; NeighborhoodAlice and
// NeighborhoodApply reuse it so no path encodes a graph twice.
func NeighborhoodEncode(g *graph.Graph, m int) (*NbrSide, error) {
	sigs := AllDegreeSignatures(g, m)
	packed, err := packSignatures(sigs)
	if err != nil {
		return nil, err
	}
	return &NbrSide{Sigs: sigs, Packed: packed, MaxSig: setutil.MaxChildLen(packed)}, nil
}

// NeighborhoodSigShape returns the sets-of-sets shape and difference bound
// the packed signature collections of two n-vertex graphs reconcile under,
// given the negotiated maximum packed signature size: what sizes the cascade
// payload of Theorem 5.6.
//
// The shape rule is forest.Plan's: S = n signatures a side, and H = maxSig
// exactly, the largest packed signature either party holds (each sends its own
// maximum and both take the larger). The budget bounds how many packed
// elements differ — d of Theorem 3.7 — and is no part of h: with it added
// (twice, up to protocol version 3) min(d, h) was always d and the 10·d·m
// budget bought ⌈log₂ budget⌉ cascade levels, 2.8 MB at G(128, ½), m = 96,
// where ⌈log₂ h⌉ levels closed by whole signatures were 0.66 MB, and are
// 0.16 MB since a level keys whole signatures wherever they are the narrower
// key (TestNeighborhoodFailureGuard).
func NeighborhoodSigShape(n int, p NeighborhoodParams, maxSig int) (core.Params, int) {
	return core.Params{S: n, H: maxSig, U: 0}, NeighborhoodBudget(p)
}

// NeighborhoodBudget is the signature-reconciliation budget, a bound on the
// packed-element changes across all signatures (the paper's O(d·pn)):
// 10·d·m + 16 — exported so the sosrnet server can bound it before building
// payloads.
func NeighborhoodBudget(p NeighborhoodParams) int { return 10*p.D*p.M + 16 }

// NeighborhoodAlice builds Alice's Theorem 5.6 transmission from her
// encoded side plus the negotiated maxSig; NeighborhoodApply is Bob's half.
// The payloads are byte-identical to what the in-process protocol sends.
func NeighborhoodAlice(coins hashing.Coins, ga *graph.Graph, p NeighborhoodParams, side *NbrSide, maxSig int) (*GraphMsgs, error) {
	w := getGraphWork()
	defer putGraphWork(w)
	return w.neighborhoodAlice(coins, ga, p, side, maxSig)
}

func (w *graphWork) neighborhoodAlice(coins hashing.Coins, ga *graph.Graph, p NeighborhoodParams, side *NbrSide, maxSig int) (*GraphMsgs, error) {
	n, d := ga.N, p.D
	budget := NeighborhoodBudget(p)
	parentA, err := w.signatureParent(side.Packed)
	if err != nil {
		return nil, err
	}
	// Vertex v is labelled by the rank of its packed signature.
	label := slices.Grow(w.label[:0], n)[:n]
	w.label = label
	for v, s := range side.Packed {
		label[v] = sigRank(parentA, s)
	}
	edgePayload := w.edgePayload(coins, nbrEdgeLabels, ga, label, d)
	sigShape, _ := NeighborhoodSigShape(n, p, maxSig)
	sigParams, err := sigShape.Normalized()
	if err != nil {
		return nil, err
	}
	sigMsg, err := core.AliceMsg(core.DigestCascade, coins.Sub("graphrecon/nbr-sig", 0), parentA, sigParams, budget, 0)
	if err != nil {
		return nil, err
	}
	return &GraphMsgs{Sig: sigMsg, Edges: edgePayload}, nil
}

// NeighborhoodApply runs Bob's Theorem 5.6 half against Alice's received
// payloads: conforming labeling by closest signature, then labeled-edge
// reconciliation.
func NeighborhoodApply(coins hashing.Coins, gb *graph.Graph, p NeighborhoodParams, side *NbrSide, maxSig int, sigMsg, edgeMsg []byte) (*graph.Graph, error) {
	w := getGraphWork()
	defer putGraphWork(w)
	return w.neighborhoodApply(coins, gb, p, side, maxSig, sigMsg, edgeMsg)
}

func (w *graphWork) neighborhoodApply(coins hashing.Coins, gb *graph.Graph, p NeighborhoodParams, side *NbrSide, maxSig int, sigMsg, edgeMsg []byte) (*graph.Graph, error) {
	n, d := gb.N, p.D
	budget := NeighborhoodBudget(p)
	sigsB, packedB := side.Sigs, side.Packed
	parentB, err := w.signatureParent(packedB)
	if err != nil {
		return nil, err
	}
	sigShape, _ := NeighborhoodSigShape(n, p, maxSig)
	sigParams, err := sigShape.Normalized()
	if err != nil {
		return nil, err
	}
	res, err := core.ApplyMsg(core.DigestCascade, coins.Sub("graphrecon/nbr-sig", 0), sigMsg, parentB, sigParams, budget, 0)
	if err != nil {
		return nil, fmt.Errorf("graphrecon: signature reconciliation: %w", err)
	}

	// Conforming labeling by closest signature. Alice's recovered signatures
	// are the peer's to choose: each is unpacked once, validated word by word
	// (setrecon.ErrMultisetRange), into one arena, and held to the size a
	// degree neighbourhood of an n-vertex graph can have. A vertex without
	// an exact match is then compared with every one of them by a sorted
	// merge that gives up once it has counted past 4d — no map per pair.
	aliceSorted := res.Recovered // canonical order from core
	w.unpacked, w.unpackedAt = w.unpacked[:0], append(w.unpackedAt[:0], 0)
	for i, sA := range aliceSorted {
		at := len(w.unpacked)
		if w.unpacked, err = setrecon.AppendSetToMultiset(w.unpacked, sA); err != nil {
			return nil, fmt.Errorf("graphrecon: recovered signature %d: %w", i, err)
		}
		if size := len(w.unpacked) - at; size >= n {
			return nil, fmt.Errorf("graphrecon: recovered signature %d has %d entries on %d vertices", i, size, n)
		}
		w.unpackedAt = append(w.unpackedAt, len(w.unpacked))
	}
	labelB := slices.Grow(w.label[:0], n)[:n]
	w.label = labelB
	for v := 0; v < n; v++ {
		sB := packedB[v]
		r := sigRank(aliceSorted, sB)
		if r < len(aliceSorted) && setutil.Equal(aliceSorted[r], sB) {
			labelB[v] = r
			continue
		}
		found := -1
		for idx := range aliceSorted {
			if setutil.DiffWithin(w.unpacked[w.unpackedAt[idx]:w.unpackedAt[idx+1]], sigsB[v], 4*d) {
				if found >= 0 {
					return nil, fmt.Errorf("%w: ambiguous match for vertex %d", ErrNoConformingMatch, v)
				}
				found = idx
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("%w: vertex %d", ErrNoConformingMatch, v)
		}
		labelB[v] = found
	}
	return w.applyEdgeRecon(coins, nbrEdgeLabels, edgeMsg, gb, labelB)
}

// packSignatures converts per-vertex degree multisets into packed sets, all
// in one arena.
func packSignatures(sigs [][]uint64) ([][]uint64, error) {
	arena := make([]uint64, 0, setutil.TotalSize(sigs))
	out := make([][]uint64, len(sigs))
	for v, s := range sigs {
		at := len(arena)
		var err error
		if arena, err = setrecon.AppendMultisetToSet(arena, s); err != nil {
			return nil, fmt.Errorf("graphrecon: vertex %d signature: %w", v, err)
		}
		out[v] = arena[at:len(arena):len(arena)]
	}
	return out, nil
}
