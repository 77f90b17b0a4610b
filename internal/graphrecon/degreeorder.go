// Package graphrecon implements the paper's graph reconciliation protocols:
// the unlimited-computation polynomial protocols of §4 (Theorems 4.1/4.3)
// for tiny graphs, and the two random-graph schemes of §5 built on
// sets-of-sets reconciliation — the degree-ordering signature scheme
// (§5.1, Theorem 5.2) and the degree-neighborhood signature scheme
// (§5.2, Theorem 5.6).
//
// In the §5 model, a base graph G ~ G(n, p) is perturbed by at most d/2 edge
// changes on each side; Bob ends up with a graph isomorphic to Alice's
// (one-way reconciliation). Both schemes reconcile vertex signatures via the
// sets-of-sets machinery, derive a conforming labeling, and reconcile the
// labeled edge sets with an IBLT in parallel (a single round overall).
package graphrecon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"sosr/internal/core"
	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Protocol errors.
var (
	// ErrNotSeparated indicates the graph violates the scheme's signature
	// robustness property (Definition 5.1 or 5.4), so the protocol's
	// preconditions do not hold.
	ErrNotSeparated = errors.New("graphrecon: graph signatures not sufficiently separated")
	// ErrNoConformingMatch indicates a differing signature could not be
	// matched within the conforming distance threshold.
	ErrNoConformingMatch = errors.New("graphrecon: no conforming signature match")
	// ErrVerify indicates the reconciled edge set failed verification.
	ErrVerify = errors.New("graphrecon: recovered graph failed verification")
)

// DegreeOrderParams configures the §5.1 scheme.
type DegreeOrderParams struct {
	// H is the number of top-degree anchor vertices (the paper's h).
	H int
	// D bounds the total number of edge changes between the two graphs.
	D int
}

// DegreeOrderSignatures computes the §5.1 signature scheme for g: top holds
// the h highest-degree vertices (descending, ties broken by index), rest the
// others in the same order, and sigs[i] is the signature of rest[i] — the
// ascending ranks in top of the anchors it is adjacent to. The signatures are
// capacity-limited sub-slices of one arena.
func DegreeOrderSignatures(g *graph.Graph, h int) (top, rest []int, sigs [][]uint64) {
	order, deg := degreeOrder(g)
	top, rest = order[:h], order[h:]
	// Every signature entry is an edge into top, so top's degrees bound them.
	total := 0
	for _, t := range top {
		total += deg[t]
	}
	arena := make([]uint64, 0, total)
	sigs = make([][]uint64, len(rest))
	for i, v := range rest {
		m := len(arena)
		for j, t := range top {
			if g.HasEdge(v, t) {
				arena = append(arena, uint64(j))
			}
		}
		sigs[i] = arena[m:len(arena):len(arena)]
	}
	return top, rest, sigs
}

// degreeOrder returns vertices sorted by degree descending (index ascending
// on ties), and the degrees.
func degreeOrder(g *graph.Graph) (order, deg []int) {
	deg = g.Degrees()
	order = make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(u, v int) int {
		if deg[u] != deg[v] {
			return deg[v] - deg[u]
		}
		return u - v
	})
	return order, deg
}

// IsSeparated checks Definition 5.1: after sorting by degree, the top h
// degrees (including the boundary to vertex h+1) are pairwise ≥ a apart, and
// all non-top signature pairs are ≥ b apart in Hamming distance. The
// boundary gap is checked too so the top-h membership is stable under
// perturbation.
func IsSeparated(g *graph.Graph, h, a, b int) bool {
	if h < 1 || h >= g.N {
		return false
	}
	order, deg := degreeOrder(g)
	for i := 0; i+1 <= h && i+1 < g.N; i++ {
		if deg[order[i]]-deg[order[i+1]] < a {
			return false
		}
	}
	_, _, sigs := DegreeOrderSignatures(g, h)
	for i := range sigs {
		for j := i + 1; j < len(sigs); j++ {
			if setutil.SymmetricDiff(sigs[i], sigs[j]) < b {
				return false
			}
		}
	}
	return true
}

// MaxSeparatedH returns the largest h ≤ hMax for which g is (h, a, b)-
// separated, or 0 if none. Used by the experiment harness to pick a valid h
// for a sampled graph (Theorem 5.3 guarantees such h exist with high
// probability in the stated p regime).
func MaxSeparatedH(g *graph.Graph, a, b, hMax int) int {
	for h := hMax; h >= 1; h-- {
		if IsSeparated(g, h, a, b) {
			return h
		}
	}
	return 0
}

// DegreeOrderingRecon runs the Theorem 5.2 protocol. Preconditions: the
// underlying base graph is (h, d+1, 2d+1)-separated and at most p.D edge
// changes separate ga and gb. One round: Alice ships the cascaded
// signature tables and the labeled-edge IBLT together; Bob recovers Alice's
// signatures, derives the conforming labeling, and reconciles the labeled
// edges. Returns Bob's copy of Alice's graph under Alice's labeling.
func DegreeOrderingRecon(sess transport.Channel, coins hashing.Coins, ga, gb *graph.Graph, p DegreeOrderParams) (*graph.Graph, transport.Stats, error) {
	if ga.N != gb.N {
		return nil, transport.Stats{}, fmt.Errorf("graphrecon: vertex count mismatch")
	}

	// --- Alice: signatures, labeling, edge IBLT. Signature sets-of-sets
	// reconciliation (Theorem 3.7), then the edge IBLT in the same round
	// (consecutive Alice sends = one round). ---
	msgs, err := DegreeOrderAlice(coins, ga, p)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	sigMsg := sess.Send(transport.Alice, "cascade-iblts", msgs.Sig)
	edgeMsg := sess.Send(transport.Alice, "edge-iblt", msgs.Edges)

	// --- Bob: conforming labeling from Alice's recovered signatures. ---
	recovered, err := DegreeOrderApply(coins, gb, p, sigMsg, edgeMsg)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	return recovered, sess.Stats(), nil
}

// GraphMsgs holds Alice's two parallel one-round payloads: the cascaded
// signature tables (sent under "cascade-iblts") and the labeled-edge IBLT
// (sent under "edge-iblt").
type GraphMsgs struct {
	Sig   []byte
	Edges []byte
}

// DegreeOrderSigShape returns the sets-of-sets shape and difference bound the
// signature collections of two n-vertex graphs reconcile under: what sizes
// the cascade payload of Theorem 5.2, whatever the graphs hold.
func DegreeOrderSigShape(n int, p DegreeOrderParams) (core.Params, int) {
	return core.Params{S: n, H: p.H, U: uint64(p.H)}, max(p.D, 1)
}

// DegreeOrderAlice builds Alice's Theorem 5.2 transmission from her graph
// alone, for split-party deployments; DegreeOrderApply is Bob's half. The
// payloads are byte-identical to what the in-process protocol sends.
func DegreeOrderAlice(coins hashing.Coins, ga *graph.Graph, p DegreeOrderParams) (*GraphMsgs, error) {
	n, h, d := ga.N, p.H, p.D
	if h < 1 || h >= n {
		return nil, fmt.Errorf("graphrecon: invalid h=%d", h)
	}
	topA, restA, sigsA := DegreeOrderSignatures(ga, h)
	parentA, err := signatureParent(sigsA)
	if err != nil {
		return nil, err
	}
	labelA := degreeOrderLabeling(topA, restA, sigsA, parentA)
	edgeSetA := labeledEdgeSet(ga, labelA)
	edgeT := iblt.NewUint64(iblt.CellsFor(d), 0, coins.Seed("graphrecon/edges", 0))
	for _, e := range edgeSetA {
		edgeT.InsertUint64(e)
	}
	edgePayload := append(edgeT.Marshal(), u64le(setutil.Hash(coins.Seed("graphrecon/edgeverify", 0), edgeSetA))...)
	sigParams, sigD := DegreeOrderSigShape(n, p)
	sigMsg, err := core.AliceMsg(core.DigestCascade, coins.Sub("graphrecon/sig", 0), parentA, sigParams, sigD, 0)
	if err != nil {
		return nil, err
	}
	return &GraphMsgs{Sig: sigMsg, Edges: edgePayload}, nil
}

// DegreeOrderApply runs Bob's Theorem 5.2 half against Alice's received
// payloads, returning his copy of Alice's graph under Alice's labeling.
func DegreeOrderApply(coins hashing.Coins, gb *graph.Graph, p DegreeOrderParams, sigMsg, edgeMsg []byte) (*graph.Graph, error) {
	n, h, d := gb.N, p.H, p.D
	if h < 1 || h >= n {
		return nil, fmt.Errorf("graphrecon: invalid h=%d", h)
	}
	topB, restB, sigsB := DegreeOrderSignatures(gb, h)
	parentB, err := signatureParent(sigsB)
	if err != nil {
		return nil, err
	}
	sigParams, sigD := DegreeOrderSigShape(n, p)
	res, err := core.ApplyMsg(core.DigestCascade, coins.Sub("graphrecon/sig", 0), sigMsg, parentB, sigParams, sigD, 0)
	if err != nil {
		return nil, fmt.Errorf("graphrecon: signature reconciliation: %w", err)
	}
	labelB, err := bobDegreeOrderLabeling(topB, restB, sigsB, res.Recovered, d)
	if err != nil {
		return nil, err
	}
	return applyEdgeRecon(edgeMsg, gb, labelB, n, coins)
}

// signatureParent sorts a graph's vertex signatures into a canonical parent
// set, rejecting duplicate signatures (which violate separation). sigs itself
// is left in vertex order.
func signatureParent(sigs [][]uint64) ([][]uint64, error) {
	parent := slices.Clone(sigs)
	setutil.SortSets(parent)
	for i := 1; i < len(parent); i++ {
		if slices.Equal(parent[i-1], parent[i]) {
			return nil, fmt.Errorf("%w: duplicate vertex signature", ErrNotSeparated)
		}
	}
	return parent, nil
}

// degreeOrderLabeling labels Alice's graph: top vertices get 0..h-1 by
// degree rank; the rest get h + (lexicographic rank of their signature).
func degreeOrderLabeling(top, rest []int, sigs, sortedSigs [][]uint64) []int {
	label := make([]int, len(top)+len(rest))
	for j, v := range top {
		label[v] = j
	}
	for i, v := range rest {
		label[v] = len(top) + sigRank(sortedSigs, sigs[i])
	}
	return label
}

// sigRank returns the index of signature s in the lexicographically sorted
// list (which must contain it).
func sigRank(sorted [][]uint64, s []uint64) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if setutil.LessSets(sorted[mid], s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bobDegreeOrderLabeling computes Bob's conforming labeling: his top-h by
// his own degree rank; every other vertex matched to the unique signature of
// Alice's within symmetric difference ≤ d (exact matches first), labeled by
// that signature's lexicographic rank.
func bobDegreeOrderLabeling(topB, restB []int, sigsB, aliceSigs [][]uint64, d int) ([]int, error) {
	label := make([]int, len(topB)+len(restB))
	for j, v := range topB {
		label[v] = j
	}
	for i, v := range restB {
		sB := sigsB[i]
		// Exact match via binary search, else conforming scan.
		r := sigRank(aliceSigs, sB)
		if r < len(aliceSigs) && setutil.Equal(aliceSigs[r], sB) {
			label[v] = len(topB) + r
			continue
		}
		found := -1
		for idx, sA := range aliceSigs {
			if setutil.SymmetricDiff(sA, sB) <= d {
				if found >= 0 {
					return nil, fmt.Errorf("%w: ambiguous match for vertex %d", ErrNoConformingMatch, v)
				}
				found = idx
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("%w: vertex %d", ErrNoConformingMatch, v)
		}
		label[v] = len(topB) + found
	}
	return label, nil
}

// labeledEdgeSet returns the canonical set of edge keys of g under label.
func labeledEdgeSet(g *graph.Graph, label []int) []uint64 {
	out := make([]uint64, 0, g.EdgeCount())
	for u := 0; u < g.N; u++ {
		g.EachNeighbor(u, func(v int) {
			if u < v {
				out = append(out, edgeKey(label[u], label[v]))
			}
		})
	}
	slices.Sort(out)
	return slices.Compact(out) // a non-injective labeling repeats keys
}

// edgeKey packs an unordered label pair into a word (labels < 2^30 so the
// key stays within the 2^60 universe).
func edgeKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<30 | uint64(b)
}

// edgeFromKey inverts edgeKey.
func edgeFromKey(k uint64) (int, int) {
	return int(k >> 30), int(k & ((1 << 30) - 1))
}

// applyEdgeRecon finishes both §5 protocols: Bob deletes his labeled edges
// from Alice's edge IBLT, decodes the difference, verifies, and materializes
// Alice's labeled graph.
func applyEdgeRecon(edgeMsg []byte, gb *graph.Graph, labelB []int, n int, coins hashing.Coins) (*graph.Graph, error) {
	if len(edgeMsg) < 8 {
		return nil, fmt.Errorf("graphrecon: short edge message")
	}
	wantHash := binary.LittleEndian.Uint64(edgeMsg[len(edgeMsg)-8:])
	t, err := iblt.Unmarshal(edgeMsg[:len(edgeMsg)-8])
	if err != nil {
		return nil, err
	}
	edgeSetB := labeledEdgeSet(gb, labelB)
	for _, e := range edgeSetB {
		t.DeleteUint64(e)
	}
	add, rem, err := t.DecodeUint64()
	if err != nil {
		return nil, fmt.Errorf("graphrecon: edge IBLT decode: %w", err)
	}
	edgesA := setutil.ApplyDiff(edgeSetB, add, rem)
	if setutil.Hash(coins.Seed("graphrecon/edgeverify", 0), edgesA) != wantHash {
		return nil, ErrVerify
	}
	out := graph.New(n)
	for _, k := range edgesA {
		u, v := edgeFromKey(k)
		if u == v || u >= n || v >= n {
			return nil, fmt.Errorf("graphrecon: corrupt edge key %d", k)
		}
		out.AddEdge(u, v)
	}
	return out, nil
}

func u64le(x uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	return b[:]
}
